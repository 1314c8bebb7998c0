// Package workload simulates the jobs and the monitoring byproducts of the
// paper's two dedicated-access-time sessions (§7): a SLURM-style job queue
// log, and the high-fidelity PAPI / IPMI counter streams of the second DAT.
//
// Application profiles reproduce the qualitative behaviours the paper
// observed: AMG generates steadily ramping power (and therefore rack heat);
// mg.C is memory-intensive — it runs at full CPU frequency with a low
// instruction rate and heavy memory traffic; prime95 is compute-intensive —
// it issues instructions at a high rate and triggers aggressive CPU
// frequency throttling. Counters are emitted cumulatively and reset at
// arbitrary intervals, exactly the property that makes the paper's
// derive-rate transformation necessary.
package workload

import (
	"fmt"
	"math"
	"sort"

	"scrubjay/internal/dataset"
	"scrubjay/internal/facility"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// Profile describes the simulated behaviour of one application.
type Profile struct {
	// Name is the application name as it appears in the job log.
	Name string
	// IdlePowerW and ActivePowerW bound a node's power draw.
	IdlePowerW, ActivePowerW float64
	// RampSeconds > 0 ramps power linearly from idle to active over the
	// job's first RampSeconds (AMG's signature); 0 means full power
	// immediately.
	RampSeconds float64
	// PhasePeriodSeconds > 0 modulates power sinusoidally (applications
	// with alternating phases); 0 disables.
	PhasePeriodSeconds float64
	// ThrottleFraction in (0,1] is the active/base frequency ratio the CPU
	// settles at under this workload (1 = no throttling).
	ThrottleFraction float64
	// InstructionsPerCycle is the IPC at active frequency.
	InstructionsPerCycle float64
	// MemOpsPerSecond is the per-CPU memory read rate; writes run at 60%.
	MemOpsPerSecond float64
	// NetBytesPerSecond is the per-node network transmit rate at full
	// activity (communication-heavy codes stress the interconnect).
	NetBytesPerSecond float64
}

// The applications used in the paper's case studies.
var (
	// AMG: adaptive mesh refinement; steadily increasing heat (§7.2).
	AMG = Profile{
		Name: "AMG", IdlePowerW: 80, ActivePowerW: 340, RampSeconds: 1800,
		ThrottleFraction: 0.95, InstructionsPerCycle: 1.1, MemOpsPerSecond: 4e8,
		NetBytesPerSecond: 4e8,
	}
	// MgC: NAS MG class C; memory-intensive arithmetic (§7.3).
	MgC = Profile{
		Name: "mg.C", IdlePowerW: 80, ActivePowerW: 260, PhasePeriodSeconds: 120,
		ThrottleFraction: 1.0, InstructionsPerCycle: 0.6, MemOpsPerSecond: 9e8,
		NetBytesPerSecond: 6e7,
	}
	// Prime95: compute-intensive torture test; aggressive throttling (§7.3).
	Prime95 = Profile{
		Name: "prime95", IdlePowerW: 80, ActivePowerW: 380,
		ThrottleFraction: 0.62, InstructionsPerCycle: 2.4, MemOpsPerSecond: 8e7,
		NetBytesPerSecond: 1e6,
	}
	// LULESH: a phased hydrodynamics proxy app for background workload.
	LULESH = Profile{
		Name: "LULESH", IdlePowerW: 80, ActivePowerW: 300, PhasePeriodSeconds: 300,
		ThrottleFraction: 0.9, InstructionsPerCycle: 1.4, MemOpsPerSecond: 5e8,
		NetBytesPerSecond: 1.2e8,
	}
	// Idle pseudo-profile for unallocated nodes.
	idleProfile = Profile{Name: "idle", IdlePowerW: 80, ActivePowerW: 80,
		ThrottleFraction: 1.0, InstructionsPerCycle: 0.05, MemOpsPerSecond: 1e6,
		NetBytesPerSecond: 1e4}
)

// Job is one scheduled execution.
type Job struct {
	ID       string
	App      Profile
	Nodes    []string
	StartSec int64
	EndSec   int64
}

// Schedule is a set of jobs over a facility.
type Schedule struct {
	Facility *facility.Facility
	Jobs     []Job
	// index: node -> jobs sorted by start.
	byNode map[string][]*Job
}

// NewSchedule builds a schedule and its node index.
func NewSchedule(f *facility.Facility, jobs []Job) *Schedule {
	s := &Schedule{Facility: f, Jobs: jobs, byNode: map[string][]*Job{}}
	for i := range s.Jobs {
		j := &s.Jobs[i]
		for _, n := range j.Nodes {
			s.byNode[n] = append(s.byNode[n], j)
		}
	}
	for _, js := range s.byNode {
		sort.Slice(js, func(a, b int) bool { return js[a].StartSec < js[b].StartSec })
	}
	return s
}

// Span returns the [min start, max end) of the schedule.
func (s *Schedule) Span() (startSec, endSec int64) {
	if len(s.Jobs) == 0 {
		return 0, 0
	}
	startSec, endSec = s.Jobs[0].StartSec, s.Jobs[0].EndSec
	for _, j := range s.Jobs[1:] {
		if j.StartSec < startSec {
			startSec = j.StartSec
		}
		if j.EndSec > endSec {
			endSec = j.EndSec
		}
	}
	return
}

// jobAt returns the job running on a node at an instant, or nil.
func (s *Schedule) jobAt(node string, t int64) *Job {
	for _, j := range s.byNode[node] {
		if t >= j.StartSec && t < j.EndSec {
			return j
		}
	}
	return nil
}

// activity returns the profile and job-relative activity level in [0,1]
// for a node at an instant.
func (s *Schedule) activity(node string, t int64) (Profile, float64) {
	j := s.jobAt(node, t)
	if j == nil {
		return idleProfile, 0
	}
	level := 1.0
	if j.App.RampSeconds > 0 {
		into := float64(t - j.StartSec)
		if into < j.App.RampSeconds {
			level = into / j.App.RampSeconds
		}
	}
	if j.App.PhasePeriodSeconds > 0 {
		phase := float64(t-j.StartSec) * 2 * math.Pi / j.App.PhasePeriodSeconds
		level *= 0.75 + 0.25*math.Sin(phase)
	}
	return j.App, level
}

// PowerFunc adapts the schedule to the facility thermal simulation.
func (s *Schedule) PowerFunc() facility.PowerFunc {
	return func(node string, t int64) float64 {
		p, level := s.activity(node, t)
		return p.IdlePowerW + (p.ActivePowerW-p.IdlePowerW)*level
	}
}

// JobQueueSchema is the semantics of the SLURM-style job queue log (§7.1).
func JobQueueSchema() semantics.Schema {
	return semantics.NewSchema(
		"job_id", semantics.IDDomain("job"),
		"job_name", semantics.ValueEntry("application", "identifier"),
		"elapsed", semantics.ValueEntry("time_duration", "seconds"),
		"nodelist", semantics.IDListDomain("compute_node"),
		"timespan", semantics.SpanDomain(),
	)
}

// JobQueueLog materializes the job queue log dataset.
func (s *Schedule) JobQueueLog(ctx *rdd.Context, parts int) *dataset.Dataset {
	rows := make([]value.Row, len(s.Jobs))
	for i, j := range s.Jobs {
		rows[i] = value.NewRow(
			"job_id", value.Str(j.ID),
			"job_name", value.Str(j.App.Name),
			"elapsed", value.Float(float64(j.EndSec-j.StartSec)),
			"nodelist", value.StrList(j.Nodes...),
			"timespan", value.Span(j.StartSec*1e9, j.EndSec*1e9),
		)
	}
	return dataset.FromRows(ctx, "job_queue_log", rows, JobQueueSchema(), parts)
}

// DAT1 builds the first dedicated-access-time schedule (§7.2): a
// heterogeneous mix of applications across the facility, with AMG placed on
// 60 nodes of rack `amgRack` — the configuration whose heat signature the
// paper's Figure 4 plots.
func DAT1(f *facility.Facility, amgRack int, durationSec int64) *Schedule {
	cfg := f.Config()
	if amgRack >= cfg.Racks {
		amgRack = cfg.Racks - 1
	}
	var jobs []Job
	id := 0
	nextID := func() string { id++; return fmt.Sprintf("job%04d", id) }

	// AMG on up to 60 nodes of the target rack, running most of the DAT.
	amgNodes := f.RackNodes(amgRack)
	if len(amgNodes) > 60 {
		amgNodes = amgNodes[:60]
	}
	jobs = append(jobs, Job{ID: nextID(), App: AMG, Nodes: append([]string(nil), amgNodes...),
		StartSec: 600, EndSec: durationSec - 600})

	// Background workloads on other racks: alternating mg.C / LULESH /
	// prime95 slots of varying sizes.
	profiles := []Profile{MgC, LULESH, Prime95}
	for r := 0; r < cfg.Racks; r++ {
		if r == amgRack {
			continue
		}
		p := profiles[r%len(profiles)]
		nodes := f.RackNodes(r)
		half := len(nodes) / 2
		if half == 0 {
			half = 1
		}
		slot := durationSec / 3
		for k := int64(0); k < 3; k++ {
			jobs = append(jobs, Job{
				ID:       nextID(),
				App:      p,
				Nodes:    append([]string(nil), nodes[:half]...),
				StartSec: k*slot + int64(r)*30%slot,
				EndSec:   (k+1)*slot - 120,
			})
		}
	}
	return NewSchedule(f, jobs)
}

// DAT2 builds the second dedicated-access-time schedule (§7.3): three runs
// of mg.C followed by three runs of prime95 on the given nodes, with gaps
// between runs, CPU throttling enabled throughout.
func DAT2(f *facility.Facility, nodes []string, runSec, gapSec int64) *Schedule {
	var jobs []Job
	t := int64(gapSec)
	id := 0
	for _, p := range []Profile{MgC, MgC, MgC, Prime95, Prime95, Prime95} {
		id++
		jobs = append(jobs, Job{
			ID:       fmt.Sprintf("dat2-%02d", id),
			App:      p,
			Nodes:    append([]string(nil), nodes...),
			StartSec: t,
			EndSec:   t + runSec,
		})
		t += runSec + gapSec
	}
	return NewSchedule(f, jobs)
}
