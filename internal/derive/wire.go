package derive

import (
	"encoding/binary"
	"fmt"

	"scrubjay/internal/rdd"
	"scrubjay/internal/shuffle"
	"scrubjay/internal/value"
)

// Wire codecs for every element type a shipped plan shuffles. Each product
// path shuffle call site attaches the matching wire via rdd.WithWire, which
// makes that exchange eligible for the distributed path (internal/cluster)
// when the Context carries a Placement; without one, the wires are inert
// and the in-process exchange runs unchanged. The row-path operators, kept
// only as the reference the columnar kernels are tested against, attach
// none and always shuffle in-process. Elements are self-delimiting, so a
// merged destination payload decodes by looping until exhausted.
//
// All codecs round-trip exactly — the same canonical binary forms
// (value.AppendBinary, the shuffle batch codec) that keep distributed runs
// bit-for-bit identical to in-process ones.

// rowWire carries bare value.Row elements: the row shuffles derive_heat and
// aggregate_by run on the product path.
var rowWire = &rdd.Wire[value.Row]{
	Append: func(buf []byte, r value.Row) []byte { return r.AppendBinary(buf) },
	Decode: value.DecodeRow,
}

// keyedFrameWire carries columnar hash-exchange batches: the frame plus its
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

// interpTaggedCWire carries the columnar interpolation join's tagged copies.
var interpTaggedCWire = &rdd.Wire[interpTaggedC]{
	Append: func(buf []byte, e interpTaggedC) []byte {
		buf = binary.AppendUvarint(buf, e.kh)
		buf = binary.AppendVarint(buf, e.id)
		buf = binary.AppendVarint(buf, e.t)
		buf = binary.AppendVarint(buf, e.binA)
		buf = binary.AppendVarint(buf, e.binSelf)
		buf = append(buf, e.tag)
		return e.row.AppendBinary(buf)
	},
	Decode: func(b []byte) (interpTaggedC, int, error) {
		var e interpTaggedC
		kh, pos := binary.Uvarint(b)
		if pos <= 0 {
			return e, 0, fmt.Errorf("derive: truncated interpTaggedC hash")
		}
		e.kh = kh
		for _, dst := range []*int64{&e.id, &e.t, &e.binA, &e.binSelf} {
			v, n := binary.Varint(b[pos:])
			if n <= 0 {
				return e, 0, fmt.Errorf("derive: truncated interpTaggedC field")
			}
			*dst = v
			pos += n
		}
		if pos >= len(b) {
			return e, 0, fmt.Errorf("derive: truncated interpTaggedC tag")
		}
		e.tag = b[pos]
		pos++
		row, n, err := value.DecodeRow(b[pos:])
		if err != nil {
			return e, 0, err
		}
		e.row = row
		return e, pos + n, nil
	},
}

// interpCandWire carries candidate pairs into the columnar interpolation
// join's regroup-by-left-id exchange.
var interpCandWire = &rdd.Wire[interpCand]{
	Append: func(buf []byte, c interpCand) []byte {
		buf = binary.AppendVarint(buf, c.id)
		buf = binary.AppendVarint(buf, c.lt)
		buf = binary.AppendVarint(buf, c.rt)
		buf = c.lrow.AppendBinary(buf)
		return c.rrow.AppendBinary(buf)
	},
	Decode: func(b []byte) (interpCand, int, error) {
		var c interpCand
		pos := 0
		for _, dst := range []*int64{&c.id, &c.lt, &c.rt} {
			v, n := binary.Varint(b[pos:])
			if n <= 0 {
				return c, 0, fmt.Errorf("derive: truncated interpCand field")
			}
			*dst = v
			pos += n
		}
		lrow, n, err := value.DecodeRow(b[pos:])
		if err != nil {
			return c, 0, err
		}
		pos += n
		rrow, n, err := value.DecodeRow(b[pos:])
		if err != nil {
			return c, 0, err
		}
		c.lrow, c.rrow = lrow, rrow
		return c, pos + n, nil
	},
}
