package derive

import (
	"fmt"

	"scrubjay/internal/rdd"
	"scrubjay/internal/shuffle"
)

// The wire codec for the one element type a shipped plan exchanges: keyed
// frame batches, which every product-path exchange carries — the natural
// join's hash exchange, both sides of the interpolation join's bin
// exchange, and the group exchange under derive_rate, derive_heat and
// aggregate alike. hashExchange and routeExchange attach it via
// rdd.WithWire, which makes the exchange eligible for the distributed path
// (internal/cluster) when the Context carries a Placement; without one,
// the wire is inert and the in-process exchange runs unchanged. The
// row-path operators, kept only as the reference the columnar kernels are
// tested against, attach none and always shuffle in-process. Elements are
// self-delimiting, so a merged destination payload decodes by looping until
// exhausted, and the codec round-trips exactly (the shuffle batch codec),
// which keeps distributed runs bit-for-bit identical to in-process ones.

// keyedFrameWire carries columnar exchange batches: the frame plus its
// per-row composite key hashes. A routed batch is encoded straight from
// its selection (shuffle.AppendSelection), so the bytes are those of the
// selected rows alone, no gathered copy is built, and they decode to a
// batch with no selection. Every batch carries one hash per row, so a
// payload whose hash vector does not match its row count is corrupt.
var keyedFrameWire = &rdd.Wire[keyedFrame]{
	Append: func(buf []byte, kf keyedFrame) []byte {
		return shuffle.AppendSelection(buf, kf.f, kf.h, kf.sel)
	},
	Decode: func(b []byte) (keyedFrame, int, error) {
		f, h, n, err := shuffle.DecodeBatch(b)
		if err != nil {
			return keyedFrame{}, 0, err
		}
		if len(h) != f.NumRows() {
			return keyedFrame{}, 0, fmt.Errorf("derive: exchange batch has %d key hashes for %d rows", len(h), f.NumRows())
		}
		return keyedFrame{f: f, h: h}, n, nil
	},
}
