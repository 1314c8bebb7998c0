package value

import (
	"encoding/binary"
	"fmt"
)

// AppendBinary appends a compact binary encoding of the value: a kind byte
// followed by a kind-specific payload (zigzag varints for integral kinds,
// raw bits for floats, length-prefixed bytes for strings). It is the
// compact sibling of the JSON form, used by kv tables (rows) and by the
// shuffle codec's boxed columns (cells).
func (v Value) AppendBinary(b []byte) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt, KindTime:
		b = binary.AppendVarint(b, v.num)
	case KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.num))
		b = append(b, buf[:]...)
	case KindString:
		b = binary.AppendUvarint(b, uint64(len(v.str)))
		b = append(b, v.str...)
	case KindSpan:
		b = binary.AppendVarint(b, v.num)
		b = binary.AppendVarint(b, v.num2)
	case KindList:
		vl := *v.list
		b = binary.AppendUvarint(b, uint64(len(vl)))
		for _, e := range vl {
			b = e.AppendBinary(b)
		}
	}
	return b
}

// DecodeValue decodes a value produced by AppendBinary, returning the value
// and the number of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	var stack []Value
	return decodeValue(b, &stack)
}

// decodeValue decodes one value. A list decodes its elements onto the
// stack shared by every list level and copies them out at its exact size
// once complete, so a corrupt input of deeply nested list headers costs
// memory linear in len(b), not quadratic.
func decodeValue(b []byte, stack *[]Value) (Value, int, error) {
	if len(b) == 0 {
		return Null(), 0, fmt.Errorf("value: empty binary input")
	}
	kind := Kind(b[0])
	n := 1
	switch kind {
	case KindNull:
		return Null(), n, nil
	case KindBool, KindInt, KindTime:
		num, sz := binary.Varint(b[n:])
		if sz <= 0 {
			return Null(), 0, fmt.Errorf("value: truncated varint")
		}
		if kind == KindBool {
			return Bool(num != 0), n + sz, nil // any nonzero payload is true
		}
		return Value{kind: kind, num: num}, n + sz, nil
	case KindFloat:
		if len(b) < n+8 {
			return Null(), 0, fmt.Errorf("value: truncated float")
		}
		num := int64(binary.LittleEndian.Uint64(b[n : n+8]))
		return Value{kind: KindFloat, num: num}, n + 8, nil
	case KindString:
		l, sz := binary.Uvarint(b[n:])
		if sz <= 0 || l > uint64(len(b)-n-sz) {
			return Null(), 0, fmt.Errorf("value: truncated string")
		}
		n += sz
		return Str(string(b[n : n+int(l)])), n + int(l), nil
	case KindSpan:
		a, sz1 := binary.Varint(b[n:])
		if sz1 <= 0 {
			return Null(), 0, fmt.Errorf("value: truncated span start")
		}
		n += sz1
		c, sz2 := binary.Varint(b[n:])
		if sz2 <= 0 {
			return Null(), 0, fmt.Errorf("value: truncated span end")
		}
		return Span(a, c), n + sz2, nil
	case KindList:
		l, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return Null(), 0, fmt.Errorf("value: truncated list length")
		}
		n += sz
		if l > uint64(len(b)-n) { // every element takes at least one byte
			return Null(), 0, fmt.Errorf("value: implausible list length %d", l)
		}
		base := len(*stack)
		for i := uint64(0); i < l; i++ {
			e, consumed, err := decodeValue(b[n:], stack)
			if err != nil {
				return Null(), 0, err
			}
			*stack = append(*stack, e)
			n += consumed
		}
		vs := make([]Value, l)
		copy(vs, (*stack)[base:])
		*stack = (*stack)[:base]
		return listOf(vs), n, nil
	default:
		return Null(), 0, fmt.Errorf("value: unknown binary kind %d", kind)
	}
}

// AppendBinary appends a binary encoding of the row: a field count followed
// by (name, value) pairs.
func (r Row) AppendBinary(b []byte) []byte {
	cols := r.Columns() // sorted: encoding is canonical
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
		b = r[c].AppendBinary(b)
	}
	return b
}

// DecodeRow decodes a row produced by Row.AppendBinary, returning the row
// and bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	nFields, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("value: truncated row header")
	}
	if nFields > uint64(len(b)) {
		return nil, 0, fmt.Errorf("value: implausible field count %d", nFields)
	}
	n := sz
	row := make(Row, nFields)
	for i := uint64(0); i < nFields; i++ {
		l, sz := binary.Uvarint(b[n:])
		if sz <= 0 || l > uint64(len(b)-n-sz) {
			return nil, 0, fmt.Errorf("value: truncated column name")
		}
		n += sz
		name := string(b[n : n+int(l)])
		n += int(l)
		v, consumed, err := DecodeValue(b[n:])
		if err != nil {
			return nil, 0, err
		}
		row[name] = v
		n += consumed
	}
	return row, n, nil
}
