package derive

import (
	"scrubjay/internal/rdd"
	"scrubjay/internal/shuffle"
	"scrubjay/internal/value"
)

// Wire codecs for every element type a shipped plan shuffles: whole rows
// for the row shuffles, and keyed frame batches for every columnar join —
// the natural join's hash exchange and both sides of the interpolation
// join's bin exchange alike. Each product path shuffle call site attaches
// the matching wire via rdd.WithWire, which makes that exchange eligible
// for the distributed path (internal/cluster) when the Context carries a
// Placement; without one, the wires are inert and the in-process exchange
// runs unchanged. The row-path operators, kept only as the reference the
// columnar kernels are tested against, attach none and always shuffle
// in-process. Elements are self-delimiting, so a merged destination payload
// decodes by looping until exhausted.
//
// Both codecs round-trip exactly — the same canonical binary forms
// (value.AppendBinary, the shuffle batch codec) that keep distributed runs
// bit-for-bit identical to in-process ones.

// rowWire carries bare value.Row elements: the row shuffles derive_heat and
// aggregate_by run on the product path.
var rowWire = &rdd.Wire[value.Row]{
	Append: func(buf []byte, r value.Row) []byte { return r.AppendBinary(buf) },
	Decode: value.DecodeRow,
}

// keyedFrameWire carries columnar exchange batches: the frame plus its
// per-row composite key hashes.
var keyedFrameWire = &rdd.Wire[keyedFrame]{
	Append: func(buf []byte, kf keyedFrame) []byte { return shuffle.AppendBatch(buf, kf.f, kf.h) },
	Decode: func(b []byte) (keyedFrame, int, error) {
		f, h, n, err := shuffle.DecodeBatch(b)
		if err != nil {
			return keyedFrame{}, 0, err
		}
		if h == nil {
			h = make([]uint64, 0, f.NumRows())
		}
		return keyedFrame{f: f, h: h}, n, nil
	},
}
