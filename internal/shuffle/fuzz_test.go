package shuffle

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"scrubjay/internal/frame"
	"scrubjay/internal/value"
)

// Fuzz targets for the wire decoders: whatever the bytes, decoding must
// return an error or a frame — never panic, never over-read. Seeds cover
// every column kind plus the degenerate shapes; `go test` runs the corpus
// as regular tests, `go test -fuzz=FuzzDecodeFrame ./internal/shuffle`
// explores from there.

func fuzzSeeds() [][]byte {
	seedFrames := []*frame.Frame{
		frame.FromRows(nil),
		frame.FromRows([]value.Row{{}, {}}),
		frame.FromRows([]value.Row{
			{"b": value.Bool(true), "i": value.Int(-3), "f": value.Float(1.5), "s": value.Str("x"), "t": value.Time(time.Unix(1, 0)), "sp": value.Span(1, 2)},
		}),
		frame.FromRows([]value.Row{
			{"m": value.Int(1), "l": value.StrList("a")},
			{"m": value.Str("s")},
		}),
		// Dictionary columns: one fully present, one with absent cells.
		frame.FromRows([]value.Row{
			{"rack": value.Str("r1"), "node": value.Str("n<1>")},
			{"rack": value.Str("r2")},
			{"rack": value.Str("r1"), "node": value.Str("n<1>")},
			{"rack": value.Str("r1"), "node": value.Str("n2")},
			{"rack": value.Str("r2")},
		}),
		// Plain string columns (no repeats, so no dictionary): empty
		// strings, absent cells and invalid UTF-8.
		frame.FromRows([]value.Row{
			{"id": value.Str(""), "x": value.Str("\xff\xfe")},
			{"id": value.Str("n\x00")},
			{"x": value.Str("")},
			{"id": value.Str("\xc3"), "x": value.Str("ok")},
		}),
	}
	var seeds [][]byte
	for _, f := range seedFrames {
		seeds = append(seeds, AppendFrame(nil, f))
	}
	return seeds
}

func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Add([]byte{frameMarker, 0x05, 0x05})
	f.Add(duplicateColumnPayload)
	f.Add(badDictCodePayload)
	f.Add(duplicateEntryPayload)
	f.Add(boolTwoPayload)
	f.Add(reversedSpanPayload)
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		names := map[string]bool{}
		for ci := 0; ci < fr.NumCols(); ci++ {
			name := fr.ColAt(ci).Name()
			if names[name] {
				t.Fatalf("decoded frame names column %q twice", name)
			}
			names[name] = true
		}
		// The kernels must compare decoded cells as value.Value.Equal
		// does: a dictionary listing one string twice would split one key
		// in two.
		m := min(fr.NumRows(), 64)
		for ci := 0; ci < fr.NumCols(); ci++ {
			c, cols := fr.ColAt(ci), []int{ci}
			for i := 0; i < m; i++ {
				for k := i + 1; k < m; k++ {
					if c.Present(i) && c.Present(k) && frame.ValuesEqualOn(fr, i, cols, fr, k, cols, nil) != c.Value(i).Equal(c.Value(k)) {
						t.Fatalf("column %q rows %d and %d: kernel equality disagrees with Value.Equal", c.Name(), i, k)
					}
				}
			}
		}
		// A successful decode must re-encode and decode to the same cells —
		// presence, kind and value — and the codec's own output is
		// canonical: encoding the re-decoded frame reproduces it byte for
		// byte.
		buf := AppendFrame(nil, fr)
		fr2, n2, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if n2 != len(buf) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(buf))
		}
		framesEqual(t, "re-encoded", fr, fr2)
		if again := AppendFrame(nil, fr2); !bytes.Equal(again, buf) {
			t.Fatalf("re-encoding the re-decoded frame changed its bytes:\n%x\n%x", buf, again)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(append([]byte{batchMarker, 0x00}, s...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, hashes, n, err := DecodeBatch(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(hashes) != 0 && len(hashes) != fr.NumRows() {
			t.Fatalf("hash vector %d entries for %d rows", len(hashes), fr.NumRows())
		}
	})
}

func FuzzDecodeSpanSubtrees(f *testing.F) {
	if seed, err := AppendSpanSubtrees(nil, sampleSubtrees()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{spanMarker, 0x00})
	f.Add([]byte{spanMarker, 0x01, 0x02, '{', '}'})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, n, err := DecodeSpanSubtrees(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// Every accepted record passed schema validation; re-encoding the
		// decoded set must itself decode cleanly (canonical output).
		buf, err := AppendSpanSubtrees(nil, recs)
		if err != nil {
			t.Fatalf("re-encoding decoded subtrees: %v", err)
		}
		recs2, n2, err := DecodeSpanSubtrees(buf)
		if err != nil {
			t.Fatalf("re-decode of re-encoded subtrees failed: %v", err)
		}
		if n2 != len(buf) || len(recs2) != len(recs) {
			t.Fatalf("re-encode changed shape: %d subtrees in %d bytes vs %d in %d",
				len(recs2), n2, len(recs), len(buf))
		}
	})
}

// FuzzPipelinedPuts writes an arbitrary sequence of puts — duplicates and
// empty payloads included — as one PutAll on one connection, then fetches
// every destination on that same connection. Each fetch must be the
// (src, seq)-ordered concatenation with the last write of a key winning,
// and the connection must stay usable throughout. Input bytes decode as
// repeated [dst, src, seq, len, payload...] records.
func FuzzPipelinedPuts(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 'a', 'b', 0, 0, 0, 1, 'c'})
	f.Add([]byte{1, 0, 0, 1, 'x', 1, 0, 0, 1, 'y', 1, 0, 0, 0}) // duplicate key, last write empty
	f.Add([]byte{2, 3, 1, 3, 'p', 'q', 'r', 2, 3, 0, 1, 's', 2, 0, 1, 2, 't'})
	var burst []byte // more puts than one burst carries
	for i := 0; i < 70; i++ {
		burst = append(burst, byte(i%3), byte(i%4), byte(i/4), 1, byte('A'+i%26))
	}
	f.Add(burst)

	srv, err := Serve("127.0.0.1:0", "w-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	c, err := Dial(context.Background(), srv.Addr(), "driver-fuzz", 5*time.Second)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close() })
	const dsts = 4
	n := 0
	f.Fuzz(func(t *testing.T, b []byte) {
		ctx := context.Background()
		n++
		id := fmt.Sprintf("fuzz#%d", n)
		var chunks []Chunk
		want := make([]map[[2]int][]byte, dsts) // dst -> (src, seq) -> last payload
		for len(b) >= 4 {
			ch := Chunk{Dst: int(b[0]) % dsts, Src: int(b[1]) % 4, Seq: int(b[2]) % 4}
			l := min(int(b[3])%9, len(b)-4)
			ch.Payload, b = b[4:4+l], b[4+l:]
			chunks = append(chunks, ch)
			if want[ch.Dst] == nil {
				want[ch.Dst] = map[[2]int][]byte{}
			}
			want[ch.Dst][[2]int{ch.Src, ch.Seq}] = ch.Payload
		}
		if err := c.PutAll(ctx, id, chunks, TraceCtx{}); err != nil {
			t.Fatalf("PutAll of %d chunks: %v", len(chunks), err)
		}
		for d := 0; d < dsts; d++ {
			keys := make([][2]int, 0, len(want[d]))
			for k := range want[d] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
			})
			var merged []byte
			for _, k := range keys {
				merged = append(merged, want[d][k]...)
			}
			got, err := c.Fetch(ctx, id, d)
			if err != nil {
				t.Fatalf("fetch dst %d: %v", d, err)
			}
			if !bytes.Equal(got, merged) {
				t.Fatalf("dst %d: fetched %q, want %q", d, got, merged)
			}
		}
		if err := c.Drop(ctx, id); err != nil {
			t.Fatalf("drop: %v", err)
		}
	})
}
