package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics holds a run's metrics to the declared list: the same names,
// each with its declared unit, all well-formed.
func checkMetrics(t *testing.T, got metrics, want []metricDecl) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("run reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed name or unit", d.Name, d.Unit)
		}
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s not reported", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s reported in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload at tiny scale, once untraced and once
// traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl, err := readDecl("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", declared, workloadNames)
	}
	if len(decl.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, layers.go %d", len(decl.PerLayer), len(perLayerUnits))
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			w, err := newWorkload(name, smokeSizes, out)
			if err != nil {
				t.Fatal(err)
			}
			cfg := runConfig{seed: 1, seconds: 0.2, trace: traced, setups: 1, outDir: out}
			res, err := runWorkload(name, w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if !traced {
				checkMetrics(t, res.Metrics, decl.EndToEnd)
				for _, d := range decl.EndToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			checkMetrics(t, res.Metrics, decl.PerLayer)
			data, err := os.ReadFile(filepath.Join(out, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ Spans []span }
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.Spans) == 0 {
				t.Errorf("%s: trace.json has %d spans (err %v)", name, len(tr.Spans), err)
			}
			for _, s := range tr.Spans {
				if s.EndNs < s.StartNs || s.Parent >= len(tr.Spans) {
					t.Errorf("%s: malformed span %+v", name, s)
					break
				}
			}
		}
	}
}

// TestStatistics feeds the statistics code known samples.
func TestStatistics(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three per-set-up values = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// 1..100: the nearest-rank p90 is 90 with exactly minBeyond samples
	// beyond it; p95 is 95 with only five, which is too thin to report.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, beyond := percentile(xs, 0.90); v != 90 || beyond != minBeyond {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with %d", v, beyond, minBeyond)
	}
	if v, beyond := percentile(xs, 0.95); v != 95 || beyond >= minBeyond {
		t.Errorf("p95 of 1..100 = %v with %d beyond, want 95 with fewer than %d", v, beyond, minBeyond)
	}
	if v, _ := percentile(xs, 0.999); v > 100 {
		t.Errorf("a percentile (%v) may not exceed the maximum", v)
	}
	// statistics.quantiles(range(91, 101), n=4) == [92.75, 95.5, 98.25]
	if q1, q3 := quartiles(xs[:10]); q1 != 92.75 || q3 != 98.25 {
		t.Errorf("quartiles of 91..100 = %v, %v, want 92.75, 98.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v, want 1, 4", q1, q3)
	}
}

// TestGeneratorsSeeded checks that a seed fixes the inputs and that another
// seed changes the keys but not the amount of work.
func TestGeneratorsSeeded(t *testing.T) {
	a, _ := genNatJoin(7, 500)
	b, _ := genNatJoin(7, 500)
	c, _ := genNatJoin(8, 500)
	if !reflect.DeepEqual(a.rows, b.rows) {
		t.Error("genNatJoin: same seed, different rows")
	}
	if reflect.DeepEqual(a.rows, c.rows) || len(a.rows) != len(c.rows) {
		t.Error("genNatJoin: another seed must permute the same number of rows")
	}
	if !reflect.DeepEqual(genSchedule(3, 2), genSchedule(3, 2)) || reflect.DeepEqual(genSchedule(3, 2), genSchedule(4, 2)) {
		t.Error("genSchedule must be a function of the seed")
	}
	for _, block := range genSchedule(3, 2) {
		var count [reqKinds]int
		for _, r := range block {
			count[r.kind]++
		}
		if count != serveBlock {
			t.Errorf("schedule block mix %v, want %v", count, serveBlock)
		}
	}
	d1, d2 := genDAT1(1, smokeSizes.dist), genDAT1(2, smokeSizes.dist)
	for i := range d1 {
		if len(d1[i].rows) != len(d2[i].rows) {
			t.Errorf("%s: %d rows with seed 1, %d with seed 2", d1[i].name, len(d1[i].rows), len(d2[i].rows))
		}
	}
}
