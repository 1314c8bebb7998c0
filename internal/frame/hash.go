package frame

import (
	"math"

	"scrubjay/internal/value"
)

// The columnar join/group key is a 64-bit FNV-style hash over the key
// columns' (kind, payload) pairs, computed column-at-a-time into one hash
// vector — replacing the row path's per-row KeyStringOn string building.
// A dictionary-encoded string hashes exactly as the same plain string
// does, so rows route alike whichever way their columns store strings.
// Hash equality is a candidate filter only; kernels verify candidates with
// ValuesEqualOn (value.Value.Equal semantics) before acting, so hash
// collisions cost time, never correctness.
const (
	hashSeed  uint64 = 1469598103934665603
	hashPrime uint64 = 1099511628211
)

func mix(h, x uint64) uint64 { return (h ^ x) * hashPrime }

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// HashValue folds one boxed value into a running hash, tagging the kind so
// Int(3) and Float(3) (or Str("3")) never collide structurally.
func HashValue(h uint64, v value.Value) uint64 {
	k := v.Kind()
	h = mix(h, uint64(k))
	switch k {
	case value.KindNull:
	case value.KindBool:
		if v.BoolVal() {
			h = mix(h, 1)
		} else {
			h = mix(h, 0)
		}
	case value.KindInt:
		h = mix(h, uint64(v.IntVal()))
	case value.KindFloat:
		h = mix(h, math.Float64bits(v.FloatVal()))
	case value.KindString:
		h = mixString(h, v.StrVal())
	case value.KindTime:
		h = mix(h, uint64(v.TimeNanosVal()))
	case value.KindSpan:
		s, e := v.SpanBounds()
		h = mix(mix(h, uint64(s)), uint64(e))
	case value.KindList:
		n := v.ListLen()
		h = mix(h, uint64(n))
		for i := 0; i < n; i++ {
			h = HashValue(h, v.ListAt(i))
		}
	}
	return h
}

// HashOn computes the per-row composite hash over cols, column-at-a-time.
// convs, when non-nil, holds one optional value converter per column
// (applied before hashing — the join kernels rescale right-side units into
// left-side units this way). A column the frame lacks hashes as Null for
// every row, mirroring value.Row.Get.
func (f *Frame) HashOn(cols []string, convs []func(value.Value) value.Value) []uint64 {
	h := make([]uint64, f.n)
	for i := range h {
		h[i] = hashSeed
	}
	for j, name := range cols {
		var conv func(value.Value) value.Value
		if convs != nil {
			conv = convs[j]
		}
		c := f.Col(name)
		if c == nil {
			for i := range h {
				h[i] = mix(h[i], uint64(value.KindNull))
			}
			continue
		}
		if conv != nil || c.kind == value.KindNull {
			for i := range h {
				v := c.Value(i)
				if conv != nil {
					v = conv(v)
				}
				h[i] = HashValue(h[i], v)
			}
			continue
		}
		// Typed fast paths: one branch-free-ish pass per column vector.
		kindTag := uint64(c.kind)
		nullTag := uint64(value.KindNull)
		switch c.kind {
		case value.KindFloat:
			for i := range h {
				if c.Present(i) {
					h[i] = mix(mix(h[i], kindTag), math.Float64bits(c.flts[i]))
				} else {
					h[i] = mix(h[i], nullTag)
				}
			}
		case value.KindString:
			if eh := c.entryHashes(j == 0, len(h)); eh != nil {
				for i := range h {
					if c.Present(i) {
						h[i] = eh[c.codes[i]]
					} else {
						h[i] = mix(h[i], nullTag)
					}
				}
				continue
			}
			for i := range h {
				if c.Present(i) {
					h[i] = mixString(mix(h[i], kindTag), c.StrAt(i))
				} else {
					h[i] = mix(h[i], nullTag)
				}
			}
		case value.KindSpan:
			for i := range h {
				if c.Present(i) {
					h[i] = mix(mix(mix(h[i], kindTag), uint64(c.ints[i])), uint64(c.ends[i]))
				} else {
					h[i] = mix(h[i], nullTag)
				}
			}
		default: // bool, int, time share the ints vector
			for i := range h {
				if c.Present(i) {
					h[i] = mix(mix(h[i], kindTag), uint64(c.ints[i]))
				} else {
					h[i] = mix(h[i], nullTag)
				}
			}
		}
	}
	return h
}

// entryHashes hashes a dictionary-encoded column's entries once, as the
// first key column of HashOn hashes a plain string, so HashOn can gather
// the row hashes by code. It returns nil for a plain column, for a later
// key column (whose input hashes differ row by row), and for a dictionary
// larger than the frame, where hashing rows is cheaper.
func (c *Column) entryHashes(first bool, rows int) []uint64 {
	if c.dict == nil || !first || len(c.dict.vals) > rows {
		return nil
	}
	eh := make([]uint64, len(c.dict.vals))
	for k, s := range c.dict.vals {
		eh[k] = mixString(mix(hashSeed, uint64(value.KindString)), s)
	}
	return eh
}

// ValuesEqualOn reports whether row ai of a equals row bi of b across the
// paired key columns (acols[j] against bcols[j], both resolved with
// ColIndex; -1 reads as Null). convs, when non-nil, converts b's value
// before comparing. Equality is value.Value.Equal — kind-strict, floats by
// bit pattern. Two present cells of identically typed columns compare
// unboxed when no converter applies; every other pair boxes both cells.
func ValuesEqualOn(a *Frame, ai int, acols []int, b *Frame, bi int, bcols []int, convs []func(value.Value) value.Value) bool {
	for j := range acols {
		var conv func(value.Value) value.Value
		if convs != nil {
			conv = convs[j]
		}
		if conv == nil && acols[j] >= 0 && bcols[j] >= 0 {
			if eq, ok := typedEqual(&a.cols[acols[j]], ai, &b.cols[bcols[j]], bi); ok {
				if !eq {
					return false
				}
				continue
			}
		}
		var av, bv value.Value
		if acols[j] >= 0 {
			av = a.cols[acols[j]].Value(ai)
		}
		if bcols[j] >= 0 {
			bv = b.cols[bcols[j]].Value(bi)
		}
		if conv != nil {
			bv = conv(bv)
		}
		if !av.Equal(bv) {
			return false
		}
	}
	return true
}

// typedEqual compares cell ai of a with cell bi of b as value.Value.Equal
// would, without boxing; ok is false unless both cells are present in
// columns of one typed kind. Strings coded in one dictionary compare by
// code; any other pair of string cells compares the strings.
func typedEqual(a *Column, ai int, b *Column, bi int) (eq, ok bool) {
	if a.kind != b.kind || a.kind == value.KindNull || !a.Present(ai) || !b.Present(bi) {
		return false, false
	}
	switch a.kind {
	case value.KindFloat:
		return math.Float64bits(a.flts[ai]) == math.Float64bits(b.flts[bi]), true
	case value.KindString:
		if a.dict != nil && a.dict == b.dict {
			return a.codes[ai] == b.codes[bi], true
		}
		return a.StrAt(ai) == b.StrAt(bi), true
	case value.KindSpan:
		return a.ints[ai] == b.ints[bi] && a.ends[ai] == b.ends[bi], true
	default: // bool, int, time share the ints vector
		return a.ints[ai] == b.ints[bi], true
	}
}
