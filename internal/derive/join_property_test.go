package derive

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// referenceNaturalJoin computes the natural join by nested loops: for every
// left/right row pair, if all join-column values match exactly, merge.
func referenceNaturalJoin(left, right []value.Row, pairs []joinPair) []value.Row {
	var out []value.Row
	for _, l := range left {
		for _, r := range right {
			match := true
			for _, p := range pairs {
				if !l.Get(p.LeftCol).Equal(r.Get(p.RightCol)) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			m := r.Clone()
			for _, p := range pairs {
				if p.RightCol != p.LeftCol {
					delete(m, p.RightCol)
				}
			}
			out = append(out, l.Merge(m))
		}
	}
	return out
}

func canonRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestNaturalJoinMatchesReference compares the shuffled hash join against
// the nested-loop reference on random instances with duplicate keys,
// missing values, and multiple shared dimensions.
func TestNaturalJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dict := semantics.DefaultDictionary()
	ls := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"cpu", semantics.IDDomain("cpu"),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	rs := semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"cpu_id", semantics.IDDomain("cpu"),
		"temp", semantics.ValueEntry("temperature", "kelvin"),
	)
	pairs := []joinPair{
		{Dim: "compute_node", LeftCol: "node", RightCol: "node_id"},
		{Dim: "cpu", LeftCol: "cpu", RightCol: "cpu_id"},
	}
	for trial := 0; trial < 25; trial++ {
		nl, nr := 1+rng.Intn(40), 1+rng.Intn(40)
		keys := 1 + rng.Intn(6) // few distinct keys -> many duplicates
		mkLeft := func(i int) value.Row {
			r := value.NewRow(
				"node", value.Str(fmt.Sprintf("n%d", rng.Intn(keys))),
				"cpu", value.Str(fmt.Sprintf("c%d", rng.Intn(keys))),
			)
			if rng.Intn(4) > 0 {
				r["load"] = value.Float(float64(i))
			}
			return r
		}
		mkRight := func(i int) value.Row {
			return value.NewRow(
				"node_id", value.Str(fmt.Sprintf("n%d", rng.Intn(keys))),
				"cpu_id", value.Str(fmt.Sprintf("c%d", rng.Intn(keys))),
				"temp", value.Float(300+float64(i)),
			)
		}
		lrows := make([]value.Row, nl)
		for i := range lrows {
			lrows[i] = mkLeft(i)
		}
		rrows := make([]value.Row, nr)
		for i := range rrows {
			rrows[i] = mkRight(i)
		}
		ctx := rdd.NewContext(3)
		left := dataset.FromRows(ctx, "l", lrows, ls, 3)
		right := dataset.FromRows(ctx, "r", rrows, rs, 2)
		out, err := (&NaturalJoin{}).Apply(left, right, dict)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := canonRows(out.Collect())
		want := canonRows(referenceNaturalJoin(lrows, rrows, pairs))
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d rows, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d row %d:\n got %s\nwant %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestNaturalJoinOutputInvariant: every output row carries every domain
// dimension of both inputs, and the join column values come from the left
// naming.
func TestNaturalJoinOutputInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dict := semantics.DefaultDictionary()
	ls := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"v", semantics.ValueEntry("power", "watts"),
	)
	rs := semantics.NewSchema(
		"NODEID", semantics.IDDomain("compute_node"),
		"rack", semantics.IDDomain("rack"),
	)
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(30)
		lrows := make([]value.Row, n)
		rrows := make([]value.Row, n)
		for i := range lrows {
			lrows[i] = value.NewRow("node", value.Str(fmt.Sprintf("n%d", rng.Intn(8))), "v", value.Float(1))
			rrows[i] = value.NewRow("NODEID", value.Str(fmt.Sprintf("n%d", rng.Intn(8))), "rack", value.Str("r"))
		}
		ctx := rdd.NewContext(2)
		out, err := (&NaturalJoin{}).Apply(
			dataset.FromRows(ctx, "l", lrows, ls, 2),
			dataset.FromRows(ctx, "r", rrows, rs, 2), dict)
		if err != nil {
			t.Fatal(err)
		}
		sch := out.Schema()
		if !sch.HasDomainDimension("compute_node") || !sch.HasDomainDimension("rack") {
			t.Fatalf("schema lost domains: %v", sch)
		}
		for _, r := range out.Collect() {
			if !r.Has("node") || r.Has("NODEID") {
				t.Fatalf("join naming invariant violated: %v", r)
			}
		}
	}
}

// natJoinCase is one natural-join instance: both sides' rows and
// partition counts.
type natJoinCase struct {
	lrows, rrows   []value.Row
	lparts, rparts int
}

// natJoinSchemas: a node key and a temperature key on each side; the
// right side's temperatures are Celsius, so its key converts to the left's
// Kelvin before it matches.
func natJoinSchemas() (left, right semantics.Schema) {
	left = semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"temp_k", semantics.DomainEntry("temperature", "kelvin"),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	right = semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"temp_c", semantics.DomainEntry("temperature", "degrees_celsius"),
		"fan", semantics.ValueEntry("fan_speed", "rpm"),
	)
	return
}

// natJoinCaseFromBytes builds a small join from fuzz bytes: keys from tiny
// alphabets (duplicates on both sides, long hash chains), absent key cells
// and, in the mixed mode, explicit nulls and Int(1) beside Str("1"), which
// box the key column; the typed mode keeps every key column typed.
func natJoinCaseFromBytes(data []byte) natJoinCase {
	src := byteSource(data)
	c := natJoinCase{lparts: 1 + src.next(5), rparts: 1 + src.next(5)}
	nodes := []value.Value{value.Str("n0"), value.Str("n1"), value.Str("1"), value.Str("")}
	kelvins := []value.Value{value.Float(273.15), value.Float(274.15), value.Float(300)}
	celsius := []value.Value{value.Float(0), value.Float(1), value.Float(26.85)}
	if src.next(2) == 0 {
		nodes = append(nodes, value.Int(1), value.Null())
		kelvins = append(kelvins, value.Int(300), value.Null())
		celsius = append(celsius, value.Int(0), value.Null(), value.Str("0"))
	}
	pick := func(r value.Row, col string, vals []value.Value) {
		if k := src.next(len(vals) + 1); k < len(vals) {
			r[col] = vals[k]
		}
	}
	for i, n := 0, src.next(16); i < n; i++ {
		r := value.Row{}
		pick(r, "node", nodes)
		pick(r, "temp_k", kelvins)
		if src.next(4) > 0 {
			r["load"] = value.Float(float64(i))
		}
		c.lrows = append(c.lrows, r)
	}
	for j, n := 0, src.next(16); j < n; j++ {
		r := value.Row{}
		pick(r, "node_id", nodes)
		pick(r, "temp_c", celsius)
		if src.next(4) > 0 {
			r["fan"] = value.Float(1000 + float64(j))
		}
		c.rrows = append(c.rrows, r)
	}
	return c
}

// checkNatJoinKernel runs c through the columnar kernel and the row path:
// on one partition the two must agree in exact order; on c's partition
// counts both must equal the nested-loop reference as multisets.
func checkNatJoinKernel(t testing.TB, c natJoinCase) {
	t.Helper()
	dict := semantics.DefaultDictionary()
	ls, rs := natJoinSchemas()
	run := func(columnar bool, lparts, rparts int) []string {
		from := dataset.FromRows
		if columnar {
			from = dataset.FromRowsColumnar
		}
		ctx := rdd.NewContext(3)
		out, err := (&NaturalJoin{}).Apply(from(ctx, "l", cloneRows(c.lrows), ls, lparts),
			from(ctx, "r", cloneRows(c.rrows), rs, rparts), dict)
		if err != nil {
			t.Fatalf("columnar %v: %v", columnar, err)
		}
		if out.IsColumnar() != columnar {
			t.Fatalf("columnar %v inputs gave columnar %v output", columnar, out.IsColumnar())
		}
		return encodeRows(t, out.Collect())
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d:\n got %s\nwant %s", what, i, got[i], want[i])
			}
		}
	}
	same("kernel vs row path, one partition (exact order)", run(true, 1, 1), run(false, 1, 1))

	// The reference compares raw values, so it sees the right keys already
	// in left units; the right key columns drop from the output anyway.
	pairs, err := resolveJoinPairs(ls, rs)
	if err != nil {
		t.Fatal(err)
	}
	convs := rightConverters(pairs, ls, rs, dict)
	converted := cloneRows(c.rrows)
	for _, r := range converted {
		for i, p := range pairs {
			if v, ok := r[p.RightCol]; ok && convs[i] != nil {
				r[p.RightCol] = convs[i](v)
			}
		}
	}
	want := encodeRows(t, referenceNaturalJoin(c.lrows, converted, pairs))
	sort.Strings(want)
	for _, columnar := range []bool{true, false} {
		got := run(columnar, c.lparts, c.rparts)
		sort.Strings(got)
		same(fmt.Sprintf("columnar %v vs reference, %d×%d partitions (sorted)", columnar, c.lparts, c.rparts), got, want)
	}
}

// natJoinSeeds is FuzzNaturalJoin's seed corpus.
func natJoinSeeds() [][]byte {
	seeds := [][]byte{{}}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 16+rng.Intn(96))
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// FuzzNaturalJoin is differential: the columnar join kernel must equal the
// row path in exact order on one partition, and the nested-loop reference
// as a multiset on several. The seed corpus runs as an ordinary test.
func FuzzNaturalJoin(f *testing.F) {
	for _, seed := range natJoinSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNatJoinKernel(t, natJoinCaseFromBytes(data))
	})
}
