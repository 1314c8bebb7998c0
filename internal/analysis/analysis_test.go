package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

func xySchema() semantics.Schema {
	return semantics.NewSchema(
		"k", semantics.IDDomain("compute_node"),
		"x", semantics.ValueEntry("power", "watts"),
		"y", semantics.ValueEntry("temperature", "kelvin"),
	)
}

func xyDataset(t *testing.T, xs, ys []float64, keys []string) *dataset.Dataset {
	t.Helper()
	ctx := rdd.NewContext(3)
	rows := make([]value.Row, len(xs))
	for i := range xs {
		k := "n"
		if keys != nil {
			k = keys[i]
		}
		rows[i] = value.NewRow("k", value.Str(k), "x", value.Float(xs[i]), "y", value.Float(ys[i]))
	}
	return dataset.FromRows(ctx, "xy", rows, xySchema(), 3)
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x+1
	r, err := Pearson(xyDataset(t, xs, ys, nil), "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v, want 1", r)
	}
	// Perfect anticorrelation.
	for i := range ys {
		ys[i] = -ys[i]
	}
	r, err = Pearson(xyDataset(t, xs, ys, nil), "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	ds := xyDataset(t, []float64{1}, []float64{2}, nil)
	if _, err := Pearson(ds, "x", "y"); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := Pearson(ds, "x", "nope"); err == nil {
		t.Error("unknown column should fail")
	}
	flat := xyDataset(t, []float64{5, 5, 5}, []float64{1, 2, 3}, nil)
	if _, err := Pearson(flat, "x", "y"); err == nil {
		t.Error("zero variance should fail")
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = 3*xs[i] - 7 + rng.NormFloat64()*0.01
	}
	fit, err := LinearFit(xyDataset(t, xs, ys, nil), "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 0.01 || math.Abs(fit.Intercept+7) > 0.1 {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %v", fit.R2)
	}
	if fit.String() == "" {
		t.Error("String empty")
	}
	if _, err := LinearFit(xyDataset(t, []float64{1, 1}, []float64{2, 3}, nil), "x", "y"); err == nil {
		t.Error("zero x variance should fail")
	}
	if _, err := LinearFit(xyDataset(t, nil, nil, nil), "x", "y"); err == nil {
		t.Error("empty fit should fail")
	}
	if _, err := LinearFit(xyDataset(t, nil, nil, nil), "x", "zz"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestGroupedMeans(t *testing.T) {
	ds := xyDataset(t,
		[]float64{10, 20, 30, 100},
		[]float64{0, 0, 0, 0},
		[]string{"a", "a", "b", "b"})
	means, err := GroupedMeans(ds, "k", "x")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(means["a"]-15) > 1e-12 || math.Abs(means["b"]-65) > 1e-12 {
		t.Errorf("means = %v", means)
	}
	if _, err := GroupedMeans(ds, "zz", "x"); err == nil {
		t.Error("unknown key column should fail")
	}
	if _, err := GroupedMeans(ds, "k", "zz"); err == nil {
		t.Error("unknown value column should fail")
	}
}

// TestQuickMomentsPartitionInvariance: statistics must not depend on how
// rows are partitioned across the substrate.
func TestQuickMomentsPartitionInvariance(t *testing.T) {
	prop := func(raw []int16, parts uint8) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v)*0.5 + float64(i%7)
		}
		build := func(p int) *dataset.Dataset {
			ctx := rdd.NewContext(2)
			rows := make([]value.Row, len(xs))
			for i := range xs {
				rows[i] = value.NewRow("k", value.Str("n"), "x", value.Float(xs[i]), "y", value.Float(ys[i]))
			}
			return dataset.FromRows(ctx, "xy", rows, xySchema(), p)
		}
		p1 := int(parts%7) + 1
		a, errA := LinearFit(build(1), "x", "y")
		b, errB := LinearFit(build(p1), "x", "y")
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		close := func(u, v float64) bool {
			return math.Abs(u-v) <= 1e-9*(1+math.Abs(u)+math.Abs(v))
		}
		return a.N == b.N && close(a.Slope, b.Slope) && close(a.Intercept, b.Intercept) && close(a.R2, b.R2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
