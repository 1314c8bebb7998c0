package derive

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// checkNDJSON runs c through the row-form reference and the columnar
// kernel at the given partition count and requires the same NDJSON bytes:
// the kernel's frames rendered by frame.AppendRowJSON, as the server
// streams them, against encoding/json over the reference rows. Rows compare
// in exactly the same order on one partition, as a multiset otherwise.
func checkNDJSON(t testing.TB, c groupCase, parts int) {
	t.Helper()
	dict := semantics.DefaultDictionary()
	ctx := rdd.NewContext(3)
	ref, err := c.tr.Apply(dataset.FromRows(ctx, "in", cloneRows(c.rows), c.schema, parts), dict)
	if err != nil {
		t.Fatalf("row path: %v", err)
	}
	out, err := c.tr.Apply(dataset.FromRowsColumnar(ctx, "in", cloneRows(c.rows), c.schema, parts), dict)
	if err != nil {
		t.Fatalf("columnar path: %v", err)
	}
	if !out.IsColumnar() {
		t.Fatal("columnar input produced a row-form output")
	}
	var got []string
	for _, f := range out.Frames().Collect() {
		keys := f.EncodedKeys()
		for i := 0; i < f.NumRows(); i++ {
			got = append(got, string(f.AppendRowJSON(nil, i, keys)))
		}
	}
	want := encodeRows(t, ref.Collect())
	if parts > 1 {
		sort.Strings(got)
		sort.Strings(want)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("%s parts %d: kernel NDJSON differs from the reference\n got %s\nwant %s", c.tr.Name(), parts, g, w)
	}
}

// TestExplodeContinuousCountMatchesEmit: the count pass (gridInstants)
// gives exactly the grid instants in each span — from the smallest multiple
// of the period at or after its start, found here by stepping — or its
// start alone, and the kernel the row path's rows, on negative instants,
// spans shorter than one period, empty spans and non-span cells.
func TestExplodeContinuousCountMatchesEmit(t *testing.T) {
	const period = int64(2e9)
	spans := []struct {
		name       string
		start, end int64
	}{
		{"negative", -7e9, -1e9},
		{"negative, off the grid", -5e9 + 1, -1e9 + 1},
		{"crosses zero", -3e9, 4e9},
		{"shorter than one period", 1e9 + 5, 2e9},
		{"shorter than one period, negative", -1.5e9, -1e9},
		{"empty, on the grid", 4e9, 4e9},
		{"empty, negative", -3e9, -3e9},
		{"one period exactly", 0, 2e9},
		{"ends on the grid", 1e9, 6e9},
		{"long", -9e9 - 7, 41e9 + 3},
	}
	var typed, mixed []value.Row
	for _, s := range spans {
		first := int64(0) // the smallest multiple of period ≥ start
		for first < s.start {
			first += period
		}
		for first-period >= s.start {
			first -= period
		}
		var want []int64
		for ts := first; ts < s.end; ts += period {
			want = append(want, ts)
		}
		if len(want) == 0 {
			want = append(want, s.start)
		}
		first, m := gridInstants(s.start, s.end, period)
		got := make([]int64, m)
		for j := range got {
			got[j] = first + int64(j)*period
		}
		if len(got) != len(want) {
			t.Fatalf("%s: count pass %d instants %v, emit loop %d %v", s.name, len(got), got, len(want), want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: instant %d is %d, emit loop %d", s.name, j, got[j], want[j])
			}
		}
		r := value.NewRow("job_id", value.Str(s.name), "timespan", value.Span(s.start, s.end))
		typed, mixed = append(typed, r), append(mixed, r.Clone())
	}
	// Rounding toward zero would start [−4.999999999 s, −0.999999999 s) at
	// −2 s.
	if first, m := gridInstants(-5e9+1, -1e9+1, period); first != -4e9 || m != 2 {
		t.Errorf("[-4.999999999 s, -0.999999999 s) at 2 s: %d instants from %d, want -4 s and -2 s", m, first)
	}
	// Non-span cells drop their row: they turn the column boxed.
	for _, v := range []value.Value{value.Str("soon"), value.TimeNanos(5e9), value.Null(), value.Int(3)} {
		mixed = append(mixed, value.NewRow("job_id", value.Str(v.String()), "timespan", v))
	}
	mixed = append(mixed, value.NewRow("job_id", value.Str("absent")))
	ex := &ExplodeContinuous{Column: "timespan", PeriodSeconds: 2}
	for _, rows := range [][]value.Row{typed, mixed} {
		for _, parts := range []int{1, 3} {
			checkNDJSON(t, groupCase{tr: ex, schema: jobSchema(), rows: rows}, parts)
		}
	}
}

// rateExplodeCaseFromBytes builds a derive_rate, explode_discrete or
// explode_continuous instance from fuzz bytes. Rate inputs hold counter
// resets, repeated and missing instants, missing and non-numeric samples,
// NaN and int/float mixes, on a few counter identities. Explode inputs hold
// lists of any length (empty and mixed-kind ones included) or spans on a
// half-second grid around the epoch (negative, shorter than a period and
// empty ones included), among absent, null and other non-list or non-span
// cells.
func rateExplodeCaseFromBytes(data []byte) (groupCase, int) {
	src := byteSource(data)
	parts := 1 + src.next(3)
	pick := func(r value.Row, col string, vals []value.Value) {
		if k := src.next(len(vals) + 1); k < len(vals) {
			r[col] = vals[k]
		}
	}
	half := func(k int) int64 { return int64(k) * 5e8 }
	rows := make([]value.Row, src.next(24))
	switch src.next(3) {
	case 0:
		times := []value.Value{sec(0), sec(1), sec(2), sec(2), sec(3.5), sec(-1), sec(7), value.Null(), value.Int(2)}
		counters := []value.Value{value.Int(0), value.Int(10), value.Int(25), value.Int(5), value.Int(1 << 60),
			value.Float(12.5), value.Float(3), value.Float(math.NaN()), value.Null(), value.Str("x")}
		palette := counters
		if src.next(2) == 0 {
			palette = []value.Value{value.Int(0), value.Int(10), value.Int(25), value.Int(5)}
		}
		for i := range rows {
			r := value.Row{}
			pick(r, "time", times)
			pick(r, "cpu_id", []value.Value{value.Str("c0"), value.Str("c1"), value.Int(7)})
			pick(r, "instructions", palette)
			pick(r, "aperf", counters)
			rows[i] = r
		}
		return groupCase{tr: &DeriveRate{}, schema: counterSchema(), rows: rows}, parts
	case 1:
		lists := []value.Value{value.StrList("n1", "n2"), value.StrList(), value.StrList("n3"),
			value.StrList("n1", "n1", "n2"), value.List(value.Int(1), value.Str("n1")), value.Null(), value.Str("n4")}
		for i := range rows {
			r := value.NewRow("job_id", value.Str(string(rune('a'+i))))
			pick(r, "nodelist", lists)
			pick(r, "elapsed", []value.Value{value.Float(60), value.Int(60)})
			rows[i] = r
		}
		return groupCase{tr: &ExplodeDiscrete{Column: "nodelist"}, schema: jobSchema(), rows: rows}, parts
	default:
		period := []float64{0.5, 1, 2, 3}[src.next(4)]
		for i := range rows {
			r := value.NewRow("job_id", value.Str(string(rune('a'+i))))
			switch k := src.next(8); k {
			case 0:
			case 1:
				r["timespan"] = value.Null()
			case 2:
				r["timespan"] = sec(float64(src.next(9)))
			default:
				start := half(src.next(25) - 12)
				r["timespan"] = value.Span(start, start+half(src.next(13)))
			}
			rows[i] = r
		}
		return groupCase{tr: &ExplodeContinuous{Column: "timespan", PeriodSeconds: period}, schema: jobSchema(), rows: rows}, parts
	}
}

// rateExplodeSeeds is FuzzRateExplode's seed corpus.
func rateExplodeSeeds() [][]byte {
	seeds := [][]byte{{}}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 16+rng.Intn(120))
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// FuzzRateExplode is differential: the derive_rate and explode kernels
// must render the row-form reference's NDJSON byte for byte on every
// generated input. The seed corpus runs as an ordinary test.
func FuzzRateExplode(f *testing.F) {
	for _, seed := range rateExplodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, parts := rateExplodeCaseFromBytes(data)
		checkNDJSON(t, c, parts)
	})
}
