package derive

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// TestKeyIndexCollisions builds a keyIndex over three pieces (whole
// frames and a selection) and probes it under injected hash vectors that are valid (equal keys hash equally) but adversarial: every
// key one hash, and distinct hashes that all land in one slot. Groups must
// come out in first-seen order and every probe must find exactly the group
// a map keyed by Row.KeyStringOn names, through find and findAll alike —
// so only the ValuesEqualOn check keeps the all-equal case apart.
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
			// The build rows arrive as three pieces: a frame of the first
			// rows, a selection of the middle rows out of a frame of all
			// of them, and a frame of the last rows. loc[r] is build row
			// r's piece and row there.
			bf, pf := frame.FromRows(build), frame.FromRows(probe)
			a := rng.Intn(len(build) + 1)
			b := a + rng.Intn(len(build)-a+1)
			mid := make([]int32, 0, b-a)
			for r := a; r < b; r++ {
				mid = append(mid, int32(r))
			}
			pieces := []keyedFrame{
				{f: frame.FromRows(build[:a]), h: hashes(build[:a])},
				{f: bf, h: hashes(build), sel: mid},
				{f: frame.FromRows(build[b:]), h: hashes(build[b:])},
			}
			var loc [][2]int32
			for p, kf := range pieces {
				for t := 0; t < kf.NumRows(); t++ {
					loc = append(loc, [2]int32{int32(p), int32(kf.row(t))})
				}
			}
			ix := newKeyIndex(pieces, cols)

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
				first, at := gs.at(g)[0], [2]int32{ix.fpiece[g], ix.frow[g]}
				if loc[first] != at || ix.fhash[g] != pieces[at[0]].h[at[1]] {
					t.Fatalf("%s trial %d: group %d starts at row %d (piece and row %v), keeps %v hash %#x", name, trial, g, first, loc[first], at, ix.fhash[g])
				}
			}

			ph, pIdx := hashes(probe), colIndexes(pf, cols)
			all := ix.findAll([]keyedFrame{{f: pf, h: ph}}, cols, nil)
			for j, r := range probe {
				g, ok := want[r.KeyStringOn(cols)]
				if !ok {
					g = -1
				}
				if got := ix.find(pf, j, pIdx, ph[j]); got != g || all[j] != g {
					t.Fatalf("%s trial %d: probe row %d (%v) found group %d (findAll %d), want %d", name, trial, j, r, got, all[j], g)
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

// TestNaturalJoinBytesPerRow: a natural join on unique string keys, four
// source partitions a side and every destination receiving at least three
// pieces from the left, allocates at most 200 bytes per output row in all:
// routing, the key index, the pair selections and the output itself
// (about 187 here). The join probes and gathers the rows where the
// exchange left them; concatenating each side's pieces first, which copies
// every row's cells and hash once more, measured 214.
func TestNaturalJoinBytesPerRow(t *testing.T) {
	const n, parts, bound = 1 << 14, 4, 200
	ctx := rdd.NewContext(2)
	left, right := natJoinInputs(ctx, n, parts)
	ex := hashExchange(left.Frames(), []string{"node"}, nil, parts, "pieces")
	pieces := rdd.MapPartitions(ex, func(_ int, kfs []keyedFrame) []int { return []int{len(kfs)} }).Collect()
	if slices.Min(pieces) < 3 {
		t.Fatalf("left pieces per destination %v, want at least 3 each", pieces)
	}
	dict := semantics.DefaultDictionary()
	join := func() {
		out, err := (&NaturalJoin{}).Apply(left, right, dict)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Count(); got != n {
			t.Fatalf("join of %d unique keys emitted %d rows", n, got)
		}
	}
	join() // pivots the inputs' frames, which later joins reuse
	best := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		join()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if perRow := float64(best) / n; perRow > bound {
		t.Errorf("NaturalJoin allocated %.1f bytes per output row, want at most %d", perRow, bound)
	} else {
		t.Logf("%.1f bytes per output row", perRow)
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
