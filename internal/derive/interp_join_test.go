package derive

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// interpCase is one interpolation-join instance: both sides and the window.
type interpCase struct {
	ls, rs       semantics.Schema
	lrows, rrows []value.Row
	window       float64
}

// encodeRows renders rows as kind-tagged JSON, so Int(1) and Float(1), or
// an absent cell and a present null, never compare equal.
func encodeRows(t testing.TB, rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// checkInterpKernel runs c through the row-form reference and the columnar
// kernel at the given partition count and requires the same rows: in
// exactly the same order on one partition, as a multiset otherwise.
func checkInterpKernel(t testing.TB, c interpCase, parts int) {
	t.Helper()
	dict := semantics.DefaultDictionary()
	ij := &InterpolationJoin{WindowSeconds: c.window}
	ctx := rdd.NewContext(3)
	ref, err := ij.Apply(dataset.FromRows(ctx, "l", cloneRows(c.lrows), c.ls, parts),
		dataset.FromRows(ctx, "r", cloneRows(c.rrows), c.rs, parts), dict)
	if err != nil {
		t.Fatalf("row path: %v", err)
	}
	out, err := ij.Apply(dataset.FromRowsColumnar(ctx, "l", cloneRows(c.lrows), c.ls, parts),
		dataset.FromRowsColumnar(ctx, "r", cloneRows(c.rrows), c.rs, parts), dict)
	if err != nil {
		t.Fatalf("columnar path: %v", err)
	}
	if !out.IsColumnar() {
		t.Fatal("columnar inputs produced a row-form output")
	}
	got, want := encodeRows(t, out.Collect()), encodeRows(t, ref.Collect())
	order := "exact order"
	if parts > 1 {
		sort.Strings(got)
		sort.Strings(want)
		order = "sorted"
	}
	if len(got) != len(want) {
		t.Fatalf("parts %d: kernel %d rows, reference %d rows\n got %v\nwant %v", parts, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parts %d row %d (%s):\n got %s\nwant %s", parts, i, order, got[i], want[i])
		}
	}
}

func sec(s float64) value.Value { return value.TimeNanos(int64(s * 1e9)) }

// interpTestSchemas: an exact node column, a residual location, an
// interpolated temperature and a nearest-only state on the right.
func interpTestSchemas() (left, right semantics.Schema) {
	left = semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"t", semantics.TimeDomain(),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	right = semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"ts", semantics.TimeDomain(),
		"loc", semantics.IDDomain("rack_location"),
		"temp", semantics.ValueEntry("temperature", "kelvin"),
		"state", semantics.ValueEntry("identity", "identifier"),
	)
	return
}

func lrow(node string, t value.Value, load float64) value.Row {
	r := value.NewRow("node", value.Str(node), "load", value.Float(load))
	if !t.IsNull() {
		r["t"] = t
	}
	return r
}

func rrow(node string, ts, temp value.Value, state string) value.Row {
	r := value.NewRow("node_id", value.Str(node), "state", value.Str(state))
	if !ts.IsNull() {
		r["ts"] = ts
	}
	if !temp.IsNull() {
		r["temp"] = temp
	}
	return r
}

// TestInterpJoinEdgeCases holds the kernel to the row-form reference cell
// for cell on the cases its binning, bracketing and key handling must get
// right.
func TestInterpJoinEdgeCases(t *testing.T) {
	ls, rs := interpTestSchemas()
	f := value.Float
	cases := map[string]interpCase{
		"duplicate right instants": {ls: ls, rs: rs, window: 3, lrows: []value.Row{
			lrow("n0", sec(10), 0.1), lrow("n0", sec(12), 0.2), lrow("n0", sec(8), 0.3),
		}, rrows: []value.Row{
			rrow("n0", sec(14), f(304), "c"),
			rrow("n0", sec(10), f(300), "a"), rrow("n0", sec(10), f(301), "b"),
			rrow("n0", sec(14), f(305), "d"), rrow("n0", sec(6), f(296), "e"),
		}},
		"dt equals window": {ls: ls, rs: rs, window: 2, lrows: []value.Row{
			lrow("n0", sec(0), 0.1), lrow("n0", sec(10), 0.2), lrow("n0", sec(20), 0.3),
		}, rrows: []value.Row{
			rrow("n0", sec(-2), f(298), "a"), rrow("n0", sec(2), f(302), "b"),
			rrow("n0", sec(12), f(312), "c"), rrow("n0", sec(17.5), f(317), "d"),
		}},
		"bin edge": {ls: ls, rs: rs, window: 2, lrows: []value.Row{
			lrow("n0", sec(4), 0.1), lrow("n0", sec(8), 0.2), lrow("n0", sec(3.999), 0.3), lrow("n0", sec(8.001), 0.4),
		}, rrows: []value.Row{
			rrow("n0", sec(6), f(306), "a"),
		}},
		"pre-epoch": {ls: ls, rs: rs, window: 2, lrows: []value.Row{
			lrow("n0", sec(-3), 0.1), lrow("n0", sec(-7), 0.2), lrow("n0", sec(-0.5), 0.3),
		}, rrows: []value.Row{
			rrow("n0", sec(-5), f(295), "a"), rrow("n0", sec(-1), f(299), "b"), rrow("n0", sec(0.5), f(300), "c"),
		}},
		"missing or non-time instants": {ls: ls, rs: rs, window: 2, lrows: []value.Row{
			lrow("n0", value.Null(), 0.1), lrow("n0", value.Str("soon"), 0.2),
			lrow("n0", value.Int(5), 0.3), lrow("n0", sec(5), 0.4),
		}, rrows: []value.Row{
			rrow("n0", value.Null(), f(300), "a"), rrow("n0", value.Str("4"), f(301), "b"),
			rrow("n0", sec(4), f(304), "c"), rrow("n0", value.Int(6), f(306), "d"),
		}},
		"mixed int and float lerp column": {ls: ls, rs: rs, window: 4, lrows: []value.Row{
			lrow("n0", sec(1), 0.1), lrow("n0", sec(3), 0.2), lrow("n0", sec(5), 0.3),
		}, rrows: []value.Row{
			rrow("n0", sec(0), value.Int(300), "a"), rrow("n0", sec(2), value.Int(300), "b"),
			rrow("n0", sec(4), f(310.5), "c"), rrow("n0", sec(6), value.Int(320), "d"),
		}},
		"lerp column absent in both brackets": {ls: ls, rs: rs, window: 4, lrows: []value.Row{
			lrow("n0", sec(1), 0.1), lrow("n0", sec(5), 0.2), lrow("n1", sec(2.5), 0.3),
		}, rrows: []value.Row{
			rrow("n0", sec(0), value.Null(), "a"), rrow("n0", sec(2), value.Null(), "b"),
			rrow("n0", sec(4), f(304), "c"), rrow("n0", sec(6), value.Null(), "d"),
			rrow("n1", sec(1), value.Null(), "e"),
			value.NewRow("node_id", value.Str("n1"), "ts", sec(3)), // no state either
		}},
		"residual keys compare as rendered": {ls: ls, rs: rs, window: 3, lrows: []value.Row{
			lrow("n0", sec(1), 0.1), lrow("n0", sec(4), 0.2),
		}, rrows: func() []value.Row {
			locs := []value.Value{value.Int(1), value.Str("1"), value.Float(1), value.Str(""), value.Null(), value.Str("top")}
			var rows []value.Row
			for i, loc := range locs {
				r := rrow("n0", sec(float64(i)), f(300+float64(i)), fmt.Sprintf("s%d", i))
				if !loc.IsNull() {
					r["loc"] = loc
				}
				rows = append(rows, r)
			}
			return rows
		}()},
		"empty left":  {ls: ls, rs: rs, window: 2, rrows: []value.Row{rrow("n0", sec(1), f(300), "a")}},
		"empty right": {ls: ls, rs: rs, window: 2, lrows: []value.Row{lrow("n0", sec(1), 0.1)}},
	}

	// Exact columns in different units: the right side's Celsius keys
	// convert to the left's Kelvin before they match.
	kl := semantics.NewSchema(
		"temp_k", semantics.DomainEntry("temperature", "kelvin"),
		"t", semantics.TimeDomain(),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	kr := semantics.NewSchema(
		"temp_c", semantics.DomainEntry("temperature", "degrees_celsius"),
		"ts", semantics.TimeDomain(),
		"fan", semantics.ValueEntry("fan_speed", "rpm"),
	)
	var klrows, krrows []value.Row
	for i, k := range []float64{290, 300, 300, 301.25} {
		klrows = append(klrows, value.NewRow("temp_k", f(k), "t", sec(float64(i)), "load", f(float64(i))))
		krrows = append(krrows, value.NewRow("temp_c", f(k-273.15), "ts", sec(float64(i)+0.5), "fan", f(1000+float64(i))))
	}
	krrows = append(krrows, value.NewRow("temp_c", value.Int(27), "ts", sec(1), "fan", f(2000)))
	cases["unit-converted exact column"] = interpCase{ls: kl, rs: kr, window: 1, lrows: klrows, rrows: krrows}

	// No exact columns: the instant alone relates the rows.
	tl := semantics.NewSchema("t", semantics.TimeDomain(), "lid", semantics.ValueEntry("identity", "identifier"))
	tr := semantics.NewSchema("ts", semantics.TimeDomain(), "watts", semantics.ValueEntry("power", "watts"))
	var tlrows, trrows []value.Row
	for i := 0; i < 12; i++ {
		tlrows = append(tlrows, value.NewRow("t", sec(float64(i)*1.5), "lid", value.Str(fmt.Sprintf("L%d", i))))
		trrows = append(trrows, value.NewRow("ts", sec(float64(11-i)*1.25), "watts", f(float64(100+i))))
	}
	cases["time-only join"] = interpCase{ls: tl, rs: tr, window: 1, lrows: tlrows, rrows: trrows}

	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, parts := range []int{1, 3, 7} {
				checkInterpKernel(t, cases[name], parts)
			}
		})
	}
}

// byteSource hands out fuzz bytes, then zeros once they run out.
type byteSource []byte

func (b *byteSource) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// interpCaseFromBytes builds a small catalog from fuzz bytes: few nodes,
// instants on a half-second grid around the epoch (duplicates, bin edges
// and |dt| == W are common), missing and non-time instants, Int/Float/null
// lerp cells, and residual keys that differ in kind but render alike. In
// one case of three the lerp cells are floats or absent only, so the lerp
// column is float-typed with gaps, and a left row whose brackets both lack
// the cell gets an explicit null.
func interpCaseFromBytes(data []byte) (interpCase, int) {
	src := byteSource(data)
	ls, rs := interpTestSchemas()
	c := interpCase{ls: ls, rs: rs, window: 0.5 * float64(1+src.next(6))}
	parts := 1 + src.next(5)
	instant := func() value.Value {
		switch k := src.next(16); {
		case k == 0:
			return value.Null()
		case k == 1:
			return value.Str("later")
		default:
			return sec(0.5 * float64(src.next(25)-12))
		}
	}
	nodes := []string{"n0", "n1", ""}
	for i, n := 0, src.next(16); i < n; i++ {
		r := lrow(nodes[src.next(3)], instant(), float64(i))
		if r["node"].StrVal() == "" {
			delete(r, "node")
		}
		c.lrows = append(c.lrows, r)
	}
	locs := []value.Value{value.Null(), value.Str("top"), value.Int(1), value.Str("1"), value.Float(1)}
	temps := []value.Value{value.Null(), value.Int(300), value.Float(300.5), value.Float(-2), value.Int(7)}
	if src.next(3) == 0 {
		temps = []value.Value{value.Null(), value.Float(300.5), value.Float(-2), value.Float(7.25)}
	}
	for i, n := 0, src.next(16); i < n; i++ {
		r := rrow(nodes[src.next(3)], instant(), temps[src.next(len(temps))], fmt.Sprintf("s%d", i))
		if r["node_id"].StrVal() == "" {
			delete(r, "node_id")
		}
		if loc := locs[src.next(len(locs))]; !loc.IsNull() {
			r["loc"] = loc
		}
		if src.next(4) == 0 {
			delete(r, "state")
		}
		c.rrows = append(c.rrows, r)
	}
	return c, parts
}

// interpSeeds is FuzzInterpolationJoin's seed corpus.
func interpSeeds() [][]byte {
	seeds := [][]byte{{}}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 32+rng.Intn(160))
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestInterpSeedsReachFloatGaps: some seed input of FuzzInterpolationJoin
// gives the kernel a float-typed lerp column with absent cells, and its
// output an explicit null where both brackets lack the cell — the float
// path of lerpColumn that boxes its result.
func TestInterpSeedsReachFloatGaps(t *testing.T) {
	dict := semantics.DefaultDictionary()
	reached := 0
	for _, seed := range interpSeeds() {
		c, parts := interpCaseFromBytes(seed)
		ctx := rdd.NewContext(1)
		right := dataset.FromRowsColumnar(ctx, "r", cloneRows(c.rrows), c.rs, parts)
		gaps := false
		for _, f := range right.Frames().Collect() {
			if col := f.Col("temp"); col != nil && col.Kind() == value.KindFloat && !col.AllPresent() {
				gaps = true
			}
		}
		if !gaps {
			continue
		}
		left := dataset.FromRowsColumnar(ctx, "l", cloneRows(c.lrows), c.ls, parts)
		out, err := (&InterpolationJoin{WindowSeconds: c.window}).Apply(left, right, dict)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out.Collect() {
			if v, ok := r["temp"]; ok && v.IsNull() {
				reached++
				break
			}
		}
	}
	t.Logf("%d of %d seeds join a float lerp column with gaps into an explicit null", reached, len(interpSeeds()))
	if reached == 0 {
		t.Error("no seed input joins a float lerp column with gaps into an explicit null")
	}
}

// TestInterpSeedsReachTimeSort: FuzzInterpolationJoin's seed corpus hands
// the probe both kinds of residual class sortByTime tells apart — one of
// at least two rows out of time order (the radix sort) and one of at least
// two rows already in it (the presorted return). The classes are counted
// from the seeds' rows, not from the kernel: on one partition the probe's
// classes are the right rows with an instant whose exact key some left row
// with an instant shares, grouped by that key and by their residual key,
// in arrival order (each row twice, once per bin its window touches).
func TestInterpSeedsReachTimeSort(t *testing.T) {
	unsorted, presorted := 0, 0
	for _, seed := range interpSeeds() {
		c, parts := interpCaseFromBytes(seed)
		if parts != 1 {
			continue
		}
		groups := map[string]bool{}
		for _, r := range c.lrows {
			if r.Get("t").Kind() == value.KindTime {
				groups[joinKey(r, []string{"node"}, nil)] = true
			}
		}
		classes := map[string][]int64{}
		for _, r := range c.rrows {
			g := joinKey(r, []string{"node_id"}, nil)
			if ts := r.Get("ts"); ts.Kind() == value.KindTime && groups[g] {
				k := g + "|" + joinKey(r, []string{"loc"}, nil)
				classes[k] = append(classes[k], ts.TimeNanosVal())
			}
		}
		for _, ts := range classes {
			if len(ts) >= 2 {
				if slices.IsSorted(ts) {
					presorted++
				} else {
					unsorted++
				}
			}
		}
	}
	t.Logf("seed classes of two or more rows: %d out of time order, %d in it", unsorted, presorted)
	if unsorted == 0 || presorted == 0 {
		t.Errorf("seed classes of two or more rows: %d out of time order, %d in it; want some of each", unsorted, presorted)
	}
}

// TestSortByTime: sortByTime orders a run as a stable sort by instant does
// — so ties keep row order — on runs empty to a few hundred rows long,
// sorted, reversed, tied, negative, spanning all 64 bits (the offset from
// the earliest instant wraps), or with constant low bytes (a skipped
// pass); with both an odd number of scatter passes (the result ends in
// tmp) and an even one (it ends in run). It allocates nothing.
func TestSortByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1}
	instants := map[string]func(k, n int) int64{
		"random":             func(int, int) int64 { return rng.Int63n(1<<40) - 1<<39 },
		"sorted":             func(k, _ int) int64 { return int64(k/2) * 3e9 },
		"reversed":           func(k, n int) int64 { return int64(n-k) * 1e9 },
		"ties":               func(int, int) int64 { return (rng.Int63n(3) - 1) * 1e9 },
		"negative":           func(int, int) int64 { return -rng.Int63n(1e12) },
		"one byte":           func(int, int) int64 { return rng.Int63n(256) },
		"two bytes":          func(int, int) int64 { return 1<<62 + rng.Int63n(1<<16) },
		"whole seconds":      func(int, int) int64 { return (rng.Int63n(5000) - 2500) * 1e9 },
		"constant low bytes": func(int, int) int64 { return rng.Int63n(1<<20)<<24 | 0xabcdef },
		"extremes":           func(k, _ int) int64 { return extremes[k%len(extremes)] },
	}
	names := make([]string, 0, len(instants))
	for name := range instants {
		names = append(names, name)
	}
	sort.Strings(names)
	parity := [2]int{} // unsorted runs by scatter-pass count parity
	for _, name := range names {
		for _, n := range []int{0, 1, 2, 3, 5, 17, 64, 300} {
			for trial := 0; trial < 8; trial++ {
				// run is an ascending subset of the rows, as the probe's
				// scatter fills it; rows off the run hold other instants.
				rts := make([]int64, 2*n+1)
				var run []int32
				for j := range rts {
					rts[j] = rng.Int63()
					if len(run) < n && (len(rts)-j <= n-len(run) || rng.Intn(2) == 0) {
						rts[j] = instants[name](len(run), n)
						run = append(run, int32(j))
					}
				}
				want := slices.Clone(run)
				slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(rts[a], rts[b]) })
				if !slices.Equal(want, run) {
					parity[scatterPasses(run, rts)%2]++
				}
				tmp := make([]int32, n+rng.Intn(3))
				for k := range tmp {
					tmp[k] = -7
				}
				got := slices.Clone(run)
				sortByTime(got, rts, tmp)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d rows: sortByTime gives %v, a stable sort %v", name, n, got, want)
				}
			}
		}
	}
	t.Logf("unsorted runs: %d with an even number of scatter passes, %d with an odd one", parity[0], parity[1])
	if parity[0] == 0 || parity[1] == 0 {
		t.Errorf("unsorted runs: %d with an even number of scatter passes, %d with an odd one; want both", parity[0], parity[1])
	}

	rts := make([]int64, 4096)
	for j := range rts {
		rts[j] = rng.Int63()
	}
	run, work, tmp := make([]int32, len(rts)), make([]int32, len(rts)), make([]int32, len(rts))
	for j := range run {
		run[j] = int32(j)
	}
	for _, order := range []string{"unsorted", "presorted"} {
		if a := testing.AllocsPerRun(5, func() {
			copy(work, run)
			sortByTime(work, rts, tmp)
		}); a != 0 {
			t.Errorf("sortByTime of a %s run of %d rows: %.0f allocations, want 0", order, len(run), a)
		}
		slices.Sort(rts)
	}
}

// scatterPasses is how many bytes of t−lo (lo the run's earliest instant)
// differ between the rows of run: the radix passes sortByTime makes.
func scatterPasses(run []int32, rts []int64) int {
	lo := rts[run[0]]
	for _, j := range run {
		lo = min(lo, rts[j])
	}
	var diff uint64
	for _, j := range run {
		diff |= uint64(rts[j]-lo) ^ uint64(rts[run[0]]-lo)
	}
	n := 0
	for ; diff != 0; diff >>= 8 {
		if diff&0xff != 0 {
			n++
		}
	}
	return n
}

// FuzzInterpolationJoin is differential: the columnar kernel must equal
// the row-form reference on every generated catalog, in exact order on one
// partition. The seed corpus runs as an ordinary test.
func FuzzInterpolationJoin(f *testing.F) {
	for _, seed := range interpSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, parts := interpCaseFromBytes(data)
		checkInterpKernel(t, c, parts)
	})
}
