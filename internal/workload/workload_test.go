package workload

import (
	"math"
	"testing"

	"scrubjay/internal/facility"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

func smallFacility() *facility.Facility {
	return facility.New(facility.Config{Racks: 4, NodesPerRack: 8, Seed: 3})
}

func TestScheduleIndexAndSpan(t *testing.T) {
	f := smallFacility()
	jobs := []Job{
		{ID: "a", App: MgC, Nodes: []string{"cab00-00"}, StartSec: 100, EndSec: 200},
		{ID: "b", App: Prime95, Nodes: []string{"cab00-00", "cab00-01"}, StartSec: 300, EndSec: 400},
	}
	s := NewSchedule(f, jobs)
	if st, en := s.Span(); st != 100 || en != 400 {
		t.Errorf("Span = %d,%d", st, en)
	}
	if j := s.jobAt("cab00-00", 150); j == nil || j.ID != "a" {
		t.Errorf("jobAt(150) = %v", j)
	}
	if j := s.jobAt("cab00-00", 250); j != nil {
		t.Errorf("gap should be idle, got %v", j)
	}
	if j := s.jobAt("cab00-01", 350); j == nil || j.ID != "b" {
		t.Errorf("jobAt(350) = %v", j)
	}
	if j := s.jobAt("cab99-99", 350); j != nil {
		t.Error("unknown node should be idle")
	}
	// Empty schedule span.
	if st, en := NewSchedule(f, nil).Span(); st != 0 || en != 0 {
		t.Error("empty span")
	}
}

func TestPowerFuncRampAndIdle(t *testing.T) {
	f := smallFacility()
	amg := Job{ID: "amg", App: AMG, Nodes: []string{"cab00-00"}, StartSec: 0, EndSec: 3600}
	s := NewSchedule(f, []Job{amg})
	p := s.PowerFunc()
	idle := p("cab00-00", -10)
	early := p("cab00-00", 60)
	late := p("cab00-00", 1800)
	if idle != AMG.IdlePowerW {
		t.Errorf("pre-job power = %v", idle)
	}
	if !(early > idle && late > early) {
		t.Errorf("AMG power should ramp: idle=%v early=%v late=%v", idle, early, late)
	}
	if p("cab00-01", 60) != idleProfile.IdlePowerW {
		t.Error("unallocated node should idle")
	}
}

func TestJobQueueLog(t *testing.T) {
	ctx := rdd.NewContext(2)
	f := smallFacility()
	s := DAT1(f, 2, 7200)
	ds := s.JobQueueLog(ctx, 2)
	if err := ds.Validate(semantics.DefaultDictionary()); err != nil {
		t.Fatalf("job log invalid: %v", err)
	}
	if ds.Count() != int64(len(s.Jobs)) {
		t.Errorf("rows = %d, want %d", ds.Count(), len(s.Jobs))
	}
	// The AMG job exists, runs on rack 2 nodes, lasts most of the DAT.
	var amg value.Row
	for _, r := range ds.Collect() {
		if r.Get("job_name").StrVal() == "AMG" {
			amg = r
		}
	}
	if amg == nil {
		t.Fatal("no AMG job in DAT1")
	}
	nodes := amg.Get("nodelist")
	if nodes.ListLen() == 0 || nodes.ListLen() > 60 {
		t.Errorf("AMG nodes = %d", nodes.ListLen())
	}
	for i := 0; i < nodes.ListLen(); i++ {
		if n := nodes.ListAt(i); n.StrVal()[:5] != "cab02" {
			t.Errorf("AMG node %s not on rack 2", n.StrVal())
		}
	}
}

func TestDAT1JobsWithinBounds(t *testing.T) {
	f := smallFacility()
	s := DAT1(f, 1, 7200)
	for _, j := range s.Jobs {
		if j.StartSec < 0 || j.EndSec > 7200 || j.StartSec >= j.EndSec {
			t.Errorf("job %s has bad span [%d,%d)", j.ID, j.StartSec, j.EndSec)
		}
		if len(j.Nodes) == 0 {
			t.Errorf("job %s has no nodes", j.ID)
		}
	}
	// AMG rack index beyond the facility is clamped.
	s2 := DAT1(f, 99, 7200)
	if len(s2.Jobs) == 0 {
		t.Error("clamped DAT1 should still schedule")
	}
}

func TestDAT2Sequence(t *testing.T) {
	f := smallFacility()
	nodes := f.RackNodes(0)[:2]
	s := DAT2(f, nodes, 600, 60)
	if len(s.Jobs) != 6 {
		t.Fatalf("jobs = %d", len(s.Jobs))
	}
	for i, j := range s.Jobs {
		wantApp := "mg.C"
		if i >= 3 {
			wantApp = "prime95"
		}
		if j.App.Name != wantApp {
			t.Errorf("job %d app = %s, want %s", i, j.App.Name, wantApp)
		}
		if i > 0 && j.StartSec < s.Jobs[i-1].EndSec {
			t.Error("jobs should not overlap")
		}
	}
}

func TestCPUSpecs(t *testing.T) {
	ctx := rdd.NewContext(1)
	cc := DefaultCounterConfig()
	ds := CPUSpecs(ctx, []string{"n1", "n2"}, cc, 1)
	if ds.Count() != int64(2*cc.CPUsPerNode) {
		t.Errorf("rows = %d", ds.Count())
	}
	if err := ds.Validate(semantics.DefaultDictionary()); err != nil {
		t.Errorf("specs invalid: %v", err)
	}
}

func TestSimulatePAPICountersCumulativeWithResets(t *testing.T) {
	ctx := rdd.NewContext(2)
	f := smallFacility()
	nodes := f.RackNodes(0)[:1]
	s := DAT2(f, nodes, 120, 30)
	cc := DefaultCounterConfig()
	cc.CPUsPerNode = 2
	ds := SimulatePAPI(ctx, s, nodes, 0, 300, cc, 2)
	if err := ds.Validate(semantics.DefaultDictionary()); err != nil {
		t.Fatalf("papi invalid: %v", err)
	}
	rows := ds.SortedBy("cpu_id", "time")
	if len(rows) != 2*300 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Counters are mostly non-decreasing with occasional resets.
	increases, resets := 0, 0
	for i := 1; i < 300; i++ { // first CPU's series
		prev := rows[i-1].Get("mperf").FloatVal()
		cur := rows[i].Get("mperf").FloatVal()
		if cur >= prev {
			increases++
		} else {
			resets++
		}
	}
	if increases < 250 {
		t.Errorf("counters should be mostly cumulative: %d increases", increases)
	}
	if cc.ResetEvery > 0 && resets == 0 {
		t.Error("expected at least one counter reset")
	}
}

func TestSimulatePAPIThrottlingBehaviour(t *testing.T) {
	// During mg.C the APERF/MPERF ratio stays near 1; during prime95 it
	// drops toward the throttle floor — the §7.3 signature.
	ctx := rdd.NewContext(2)
	f := smallFacility()
	nodes := f.RackNodes(0)[:1]
	s := DAT2(f, nodes, 300, 60)
	cc := DefaultCounterConfig()
	cc.CPUsPerNode = 1
	cc.ResetEvery = 0 // keep differencing simple here
	ds := SimulatePAPI(ctx, s, nodes, 0, s.Jobs[5].EndSec+60, cc, 2)
	rows := ds.SortedBy("time")

	ratioAt := func(lo, hi int64) float64 {
		var sum float64
		var n int
		for i := 1; i < len(rows); i++ {
			ts := rows[i].Get("time").TimeNanosVal() / 1e9
			if ts < lo || ts >= hi {
				continue
			}
			da := rows[i].Get("aperf").FloatVal() - rows[i-1].Get("aperf").FloatVal()
			dm := rows[i].Get("mperf").FloatVal() - rows[i-1].Get("mperf").FloatVal()
			if dm > 0 {
				sum += da / dm
				n++
			}
		}
		return sum / float64(n)
	}
	mg := s.Jobs[0]
	p95 := s.Jobs[3]
	mgRatio := ratioAt(mg.StartSec+10, mg.EndSec)
	p95Ratio := ratioAt(p95.StartSec+10, p95.EndSec)
	if mgRatio < 0.95 {
		t.Errorf("mg.C should run near base frequency, ratio=%v", mgRatio)
	}
	if p95Ratio > 0.8 {
		t.Errorf("prime95 should throttle aggressively, ratio=%v", p95Ratio)
	}
	if math.Abs(mgRatio-p95Ratio) < 0.15 {
		t.Errorf("throttling contrast too weak: %v vs %v", mgRatio, p95Ratio)
	}
}

func TestSimulateIPMI(t *testing.T) {
	ctx := rdd.NewContext(2)
	f := smallFacility()
	nodes := f.RackNodes(0)[:1]
	s := DAT2(f, nodes, 300, 60)
	cc := DefaultCounterConfig()
	ds := SimulateIPMI(ctx, s, nodes, 0, 600, cc, 2)
	if err := ds.Validate(semantics.DefaultDictionary()); err != nil {
		t.Fatalf("ipmi invalid: %v", err)
	}
	rows := ds.SortedBy("socket", "time")
	perSocket := 600 / cc.IPMIPeriodSec
	if int64(len(rows)) != int64(cc.SocketsPerNode)*perSocket {
		t.Fatalf("rows = %d", len(rows))
	}
	// During the first mg.C run memory traffic accumulates fast; thermal
	// margin remains positive.
	var sawTraffic bool
	for _, r := range rows {
		if r.Get("mem_reads").FloatVal() > 1e8 {
			sawTraffic = true
		}
		if r.Get("thermal_margin").FloatVal() < 0 {
			t.Errorf("negative thermal margin: %v", r)
		}
		if r.Get("socket_power").FloatVal() <= 0 {
			t.Errorf("non-positive socket power: %v", r)
		}
	}
	if !sawTraffic {
		t.Error("mg.C should generate heavy memory traffic")
	}
}

func TestMemoryContrastBetweenApps(t *testing.T) {
	// mg.C moves far more memory than prime95 (§7.3).
	ctx := rdd.NewContext(1)
	f := smallFacility()
	nodes := f.RackNodes(0)[:1]
	s := DAT2(f, nodes, 300, 60)
	cc := DefaultCounterConfig()
	cc.ResetEvery = 0
	cc.SocketsPerNode = 1
	ds := SimulateIPMI(ctx, s, nodes, 0, s.Jobs[5].EndSec, cc, 1)
	rows := ds.SortedBy("time")
	rate := func(lo, hi int64) float64 {
		var total float64
		var n int
		for i := 1; i < len(rows); i++ {
			ts := rows[i].Get("time").TimeNanosVal() / 1e9
			if ts < lo || ts >= hi {
				continue
			}
			d := rows[i].Get("mem_reads").FloatVal() - rows[i-1].Get("mem_reads").FloatVal()
			if d >= 0 {
				total += d
				n++
			}
		}
		return total / float64(n)
	}
	mgRate := rate(s.Jobs[0].StartSec+10, s.Jobs[0].EndSec)
	p95Rate := rate(s.Jobs[3].StartSec+10, s.Jobs[3].EndSec)
	if mgRate < 3*p95Rate {
		t.Errorf("mg.C memory rate should dominate prime95: %v vs %v", mgRate, p95Rate)
	}
}
