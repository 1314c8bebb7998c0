package derive

import (
	"fmt"
	"math/rand"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// keyIndexRows draws n rows over the key columns a and b from tiny
// alphabets: duplicates everywhere, absent cells beside explicit nulls,
// and Int(1) beside Str("1"). typed keeps a to strings (typed storage, so
// the unboxed comparison runs); otherwise a mixes kinds (boxed storage).
func keyIndexRows(rng *rand.Rand, n int, typed bool) []value.Row {
	as := []value.Value{value.Str("x"), value.Str("y"), value.Str("1"), value.Str("")}
	if !typed {
		as = append(as, value.Int(1), value.Null())
	}
	bs := []value.Value{value.Int(1), value.Int(2), value.Int(3)}
	rows := make([]value.Row, n)
	for i := range rows {
		r := value.Row{"v": value.Int(int64(i))}
		if k := rng.Intn(len(as) + 1); k < len(as) {
			r["a"] = as[k]
		}
		if k := rng.Intn(len(bs) + 1); k < len(bs) {
			r["b"] = bs[k]
		}
		rows[i] = r
	}
	return rows
}

// mulInverse is the inverse of an odd multiplier modulo 2^64 (Newton's
// iteration doubles the correct low bits each step).
func mulInverse(m uint64) uint64 {
	x := m
	for i := 0; i < 6; i++ {
		x *= 2 - m*x
	}
	return x
}

// TestKeyIndexCollisions builds and probes a keyIndex under injected hash
// vectors that are valid (equal keys hash equally) but adversarial: every
// key one hash, and distinct hashes that all land in one slot. Groups must
// come out in first-seen order and every probe must find exactly the group
// a map keyed by Row.KeyStringOn names — so only the ValuesEqualOn check
// in find keeps the all-equal case apart.
func TestKeyIndexCollisions(t *testing.T) {
	cols := []string{"a", "b"}
	inv := mulInverse(0x9E3779B97F4A7C15)
	injections := []struct {
		name   string
		inject func(k int) uint64 // key number -> hash
	}{
		{"all hashes equal", func(int) uint64 { return 42 }},
		// The slot takes the top bits of h·0x9E3779B97F4A7C15; these
		// hashes share that product's top 32 bits and differ below them.
		{"one slot, distinct hashes", func(k int) uint64 { return (0xABCDEF01<<32 | uint64(k)) * inv }},
	}
	rng := rand.New(rand.NewSource(31))
	for _, in := range injections {
		name, inject := in.name, in.inject
		for trial := 0; trial < 20; trial++ {
			typed := trial%2 == 0
			build := keyIndexRows(rng, 1+rng.Intn(60), typed)
			probe := keyIndexRows(rng, 1+rng.Intn(60), !typed)
			keyID := map[string]int{}
			hashes := func(rows []value.Row) []uint64 {
				h := make([]uint64, len(rows))
				for i, r := range rows {
					k := r.KeyStringOn(cols)
					if _, ok := keyID[k]; !ok {
						keyID[k] = len(keyID)
					}
					h[i] = inject(keyID[k])
				}
				return h
			}
			bf, pf := frame.FromRows(build), frame.FromRows(probe)
			ix := newKeyIndex(bf, hashes(build), cols)

			want := map[string]int32{}
			for i, r := range build {
				k := r.KeyStringOn(cols)
				if _, ok := want[k]; !ok {
					want[k] = int32(len(want))
				}
				if ix.gid[i] != want[k] {
					t.Fatalf("%s trial %d: build row %d (%v) in group %d, want %d", name, trial, i, r, ix.gid[i], want[k])
				}
			}
			if ix.len() != len(want) {
				t.Fatalf("%s trial %d: %d groups, want %d", name, trial, ix.len(), len(want))
			}
			gs := byGroup(ix.gid, ix.len())
			for g := 0; g < gs.len(); g++ {
				if rows := gs.at(g); rows[0] != ix.first[g] {
					t.Fatalf("%s trial %d: group %d starts at row %d, first row %d", name, trial, g, rows[0], ix.first[g])
				}
			}

			ph, pIdx := hashes(probe), colIndexes(pf, cols)
			for j, r := range probe {
				g, ok := want[r.KeyStringOn(cols)]
				if !ok {
					g = -1
				}
				if got := ix.find(pf, j, pIdx, ph[j], nil); got != g {
					t.Fatalf("%s trial %d: probe row %d (%v) found group %d, want %d", name, trial, j, r, got, g)
				}
			}
		}
	}
}

// natJoinInputs builds two columnar datasets of n rows each with unique
// string keys, every left key matching one right key.
func natJoinInputs(ctx *rdd.Context, n, parts int) (left, right *dataset.Dataset) {
	ls := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	rs := semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"power", semantics.ValueEntry("power", "watts"),
	)
	lrows, rrows := make([]value.Row, n), make([]value.Row, n)
	for i := range lrows {
		lrows[i] = value.NewRow("node", value.Str(fmt.Sprintf("n%06d", i)), "load", value.Float(float64(i%100)/100))
		rrows[i] = value.NewRow("node_id", value.Str(fmt.Sprintf("n%06d", n-1-i)), "power", value.Float(float64(100+i%200)))
	}
	return dataset.FromRowsColumnar(ctx, "l", lrows, ls, parts), dataset.FromRowsColumnar(ctx, "r", rrows, rs, parts)
}

// TestNaturalJoinAllocsFlat: the join kernel's allocations do not grow
// with the number of keys — the keyIndex, the group lists and the pair
// selections are a fixed set of vectors per partition — so a join over
// 16k unique keys allocates at most a few more times than one over 1k.
func TestNaturalJoinAllocsFlat(t *testing.T) {
	dict := semantics.DefaultDictionary()
	count := func(n int) float64 {
		ctx := rdd.NewContext(2)
		left, right := natJoinInputs(ctx, n, 2)
		return testing.AllocsPerRun(5, func() {
			out, err := (&NaturalJoin{}).Apply(left, right, dict)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Count(); got != int64(n) {
				t.Fatalf("join of %d unique keys emitted %d rows", n, got)
			}
		})
	}
	a1k, a16k := count(1<<10), count(1<<14)
	if a16k-a1k > 32 {
		t.Errorf("NaturalJoin: %.0f allocations over 1k keys, %.0f over 16k; want at most 32 more", a1k, a16k)
	}
}

// TestDestOfIsMod: routing by mask sends every hash where h mod numOut
// does, so partition placement — and with it the row order of every
// multi-partition result — is the same whichever way it is computed.
func TestDestOfIsMod(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for numOut := 1; numOut <= 17; numOut++ {
		for k := 0; k < 1000; k++ {
			h := rng.Uint64()
			if got, want := destOf(h, numOut), int(h%uint64(numOut)); got != want {
				t.Fatalf("destOf(%#x, %d) = %d, want %d", h, numOut, got, want)
			}
		}
	}
}
