package bench

import (
	"math"
	"strings"
	"testing"

	"scrubjay/internal/rdd"
)

func smallWorkload(rows int) JoinWorkload {
	w := DefaultJoinWorkload()
	w.Rows = rows
	w.Partitions = 8
	w.Workers = 2
	return w
}

func TestRunNaturalJoin(t *testing.T) {
	res, err := RunNaturalJoin(smallWorkload(5000))
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRows != 5000 {
		t.Errorf("output rows = %d, want 5000 (1:1 keys)", res.OutputRows)
	}
	if res.Simulated(10) <= 0 {
		t.Error("non-positive simulated makespan")
	}
	if res.Simulated(1) < res.Simulated(10) {
		t.Error("1-node simulation should not beat 10-node")
	}
}

func TestRunInterpJoin(t *testing.T) {
	res, err := RunInterpJoin(smallWorkload(4096))
	if err != nil {
		t.Fatal(err)
	}
	// Every left row has right samples within the 2s window (offset 0.5s),
	// so the output has at least one row per left row.
	if res.OutputRows < int64(res.Rows)*9/10 {
		t.Errorf("output rows = %d, want close to %d", res.OutputRows, res.Rows)
	}
}

// TestFig3RowsLinearShape asserts Figure 3's linear-in-rows claim for both
// joins as exact counts rather than timings: a 10× larger join produces
// 10× the output and shuffles exactly 10× the rows, over the same stage and
// task structure, so only the per-row work grows. The natural join (3a)
// shuffles each side once; the interpolation join (3c) shuffles each left
// row once and each right row into the two bins its window touches.
func TestFig3RowsLinearShape(t *testing.T) {
	for _, join := range []struct {
		name     string
		run      func(JoinWorkload) (JoinRunResult, error)
		shuffled int // rows shuffled per input row of one side
	}{
		{"natural", RunNaturalJoin, 2},
		{"interpolation", RunInterpJoin, 3},
	} {
		type shape struct{ stages, tasks int }
		var shapes []shape
		for _, rows := range []int{4000, 40000} {
			res, err := join.run(smallWorkload(rows))
			if err != nil {
				t.Fatal(err)
			}
			if res.OutputRows != int64(rows) {
				t.Errorf("%s rows=%d: output rows = %d, want %d (one per left row)", join.name, rows, res.OutputRows, rows)
			}
			if got, want := res.Metrics.TotalShuffleRows(), int64(join.shuffled*rows); got != want {
				t.Errorf("%s rows=%d: shuffled rows = %d, want exactly %d", join.name, rows, got, want)
			}
			sh := shape{stages: len(res.Metrics.Stages)}
			for _, st := range res.Metrics.Stages {
				sh.tasks += len(st.Tasks)
			}
			shapes = append(shapes, sh)
		}
		if shapes[0] != shapes[1] {
			t.Errorf("%s: stage/task structure changed with rows: %+v at 4k vs %+v at 40k", join.name, shapes[0], shapes[1])
		}
		if shapes[0].stages == 0 || shapes[0].tasks == 0 {
			t.Errorf("%s: no stages recorded: %+v", join.name, shapes[0])
		}
	}
}

func TestFig3ScalingShape(t *testing.T) {
	s, err := Fig3Scaling("fig3b", RunNaturalJoin, smallWorkload(40000))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) != 10 {
		t.Fatalf("points = %d", len(s.X))
	}
	if !s.Monotone(0.01) {
		t.Errorf("strong scaling should be non-increasing: %v", s.Y)
	}
	if s.Y[9] >= s.Y[0] {
		t.Errorf("10 nodes should beat 1 node: %v", s.Y)
	}
}

// TestInterpJoinCostlierThanNatural states Figure 3's cost gap as
// structure, not time: at equal rows the natural join shuffles each input
// row once (2n), while the interpolation join shuffles each left row once
// plus each right row once per 2W-wide time bin its window [t−W, t+W]
// touches. The bins are counted here from the generated instants.
func TestInterpJoinCostlierThanNatural(t *testing.T) {
	w := smallWorkload(30000)
	nj, err := RunNaturalJoin(w)
	if err != nil {
		t.Fatal(err)
	}
	ij, err := RunInterpJoin(w)
	if err != nil {
		t.Fatal(err)
	}
	left, right := interpJoinInputs(rdd.NewContext(2), w.Rows, w.Partitions)
	win := int64(w.WindowSeconds * 1e9)
	bin := func(t int64) int64 { return int64(math.Floor(float64(t) / float64(2*win))) }
	want := left.Count()
	for _, r := range right.Collect() {
		ts := r.Get("ts").TimeNanosVal()
		want += bin(ts+win) - bin(ts-win) + 1
	}
	if got := nj.Metrics.TotalShuffleRows(); got != int64(2*w.Rows) {
		t.Errorf("natural join shuffled %d rows, want exactly %d", got, 2*w.Rows)
	}
	if got := ij.Metrics.TotalShuffleRows(); got != want {
		t.Errorf("interpolation join shuffled %d rows, want exactly L + Σ bins touched = %d", got, want)
	}
	if want <= int64(2*w.Rows) {
		t.Errorf("interpolation join shuffles %d rows, not more than the natural join's %d", want, 2*w.Rows)
	}
}

func TestRunFig5Plan(t *testing.T) {
	res, err := RunFig5Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchesPaper {
		t.Errorf("Figure 5 plan mismatch:\n%s", res.Plan)
	}
	if res.SolveDuration <= 0 {
		t.Error("solve duration missing")
	}
}

func TestRunFig7Plan(t *testing.T) {
	res, err := RunFig7Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchesPaper {
		t.Errorf("Figure 7 plan mismatch:\n%s", res.Plan)
	}
}

func smallCaseStudy() CaseStudyConfig {
	cfg := DefaultCaseStudyConfig()
	cfg.Racks = 6
	cfg.NodesPerRack = 12
	cfg.AMGRack = 3
	cfg.DAT1DurationSec = 3600
	cfg.DAT2RunSec = 120
	cfg.DAT2GapSec = 30
	cfg.Workers = 2
	cfg.Partitions = 8
	return cfg
}

func TestRunFig4FindsAMGOutlier(t *testing.T) {
	cfg := smallCaseStudy()
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinedRows == 0 {
		t.Fatal("no joined rows")
	}
	if res.HottestApp != "AMG" {
		t.Errorf("hottest app = %q, want AMG (heat by rack/app: %v)", res.HottestApp, res.HeatByRackApp)
	}
	if res.HottestRack != "rack03" {
		t.Errorf("hottest rack = %q, want rack03", res.HottestRack)
	}
	if len(res.Profiles) != 3 {
		t.Fatalf("profiles = %d", len(res.Profiles))
	}
	for _, p := range res.Profiles {
		if len(p.X) < 5 {
			t.Errorf("profile %s too short: %d points", p.Label, len(p.X))
		}
		// AMG ramps: the late heat exceeds the early heat.
		early := p.Y[1]
		late := p.Y[len(p.Y)-2]
		if late <= early {
			t.Errorf("profile %s should ramp: early=%v late=%v", p.Label, early, late)
		}
	}
}

func TestRunFig6ThrottlingContrast(t *testing.T) {
	cfg := smallCaseStudy()
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinedRows == 0 {
		t.Fatal("no joined rows")
	}
	if len(res.Runs) != 6 {
		t.Fatalf("runs = %v", res.Runs)
	}
	mean := func(run, metric string) float64 { return res.PerRunMeans[run][metric] }
	mg := res.Runs[0]  // 1:mg.C
	p95 := res.Runs[3] // 4:prime95
	// mg.C runs at (near) base frequency; prime95 throttles aggressively.
	if mean(mg, "active_frequency") <= mean(p95, "active_frequency") {
		t.Errorf("mg.C frequency %v should exceed prime95 %v",
			mean(mg, "active_frequency"), mean(p95, "active_frequency"))
	}
	// prime95 issues instructions faster.
	if mean(p95, "instructions_rate") <= mean(mg, "instructions_rate") {
		t.Errorf("prime95 instruction rate %v should exceed mg.C %v",
			mean(p95, "instructions_rate"), mean(mg, "instructions_rate"))
	}
	// mg.C moves far more memory.
	if mean(mg, "mem_reads_rate") <= 2*mean(p95, "mem_reads_rate") {
		t.Errorf("mg.C memory rate %v should dominate prime95 %v",
			mean(mg, "mem_reads_rate"), mean(p95, "mem_reads_rate"))
	}
	// prime95 runs hotter: smaller thermal margin.
	if mean(p95, "thermal_margin") >= mean(mg, "thermal_margin") {
		t.Errorf("prime95 margin %v should be below mg.C %v",
			mean(p95, "thermal_margin"), mean(mg, "thermal_margin"))
	}
	for _, m := range Fig6MetricColumns() {
		if len(res.Series[seriesNameFor(m)].X) == 0 && len(res.Series[m].X) == 0 {
			t.Errorf("series %s empty", m)
		}
	}
}

// seriesNameFor maps a result column back to its series key (identity in
// the current metric set).
func seriesNameFor(col string) string { return col }

func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "l", XLabel: "x", YLabel: "y"}
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(4, 41)
	var b strings.Builder
	s.Print(&b)
	if !strings.Contains(b.String(), "# l") || !strings.Contains(b.String(), "41") {
		t.Errorf("Print output: %s", b.String())
	}
	if s.Monotone(0) {
		t.Error("increasing series is not monotone-decreasing")
	}
	down := Series{X: []float64{1, 2, 3}, Y: []float64{9, 5, 5.01}}
	if !down.Monotone(0.01) {
		t.Error("slack should allow tiny increases")
	}
	if sp := s.Sparkline(3); len([]rune(sp)) != 3 {
		t.Errorf("sparkline = %q", sp)
	}
	if (&Series{}).Sparkline(5) != "" {
		t.Error("empty sparkline")
	}
}
