package frame

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"scrubjay/internal/value"
)

// NDJSON emission straight out of column vectors. The server streams query
// results as JSON lines; the row path marshals one map[string]Value per
// row through encoding/json. AppendRowJSON produces byte-for-byte the same
// object — same sorted key order, same HTML escaping, same float
// formatting — without materializing the map, so a columnar result frame
// streams with zero per-row map allocations. TestAppendRowJSONMatches
// holds the two encoders equal property-style.

// EncodedKeys precomputes the JSON-encoded column-name keys (quoted,
// escaped, colon-terminated) in canonical column order. Compute once per
// frame, pass to every AppendRowJSON call.
func (f *Frame) EncodedKeys() [][]byte {
	keys := make([][]byte, len(f.cols))
	for i := range f.cols {
		k, err := json.Marshal(f.cols[i].name)
		if err != nil { // cannot happen for strings
			panic(err)
		}
		keys[i] = append(k, ':')
	}
	return keys
}

// AppendRowJSON appends row i of the frame, encoded exactly as
// encoding/json renders the equivalent value.Row, to dst. keys must come
// from EncodedKeys on the same frame.
func (f *Frame) AppendRowJSON(dst []byte, i int, keys [][]byte) []byte {
	dst = append(dst, '{')
	first := true
	for j := range f.cols {
		c := &f.cols[j]
		if !c.Present(i) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, keys[j]...)
		dst = appendValueJSON(dst, c, i)
	}
	return append(dst, '}')
}

// appendValueJSON renders one cell in the value wire format (the jsonValue
// struct in internal/value/json.go): a kind tag plus one payload field.
func appendValueJSON(dst []byte, c *Column, i int) []byte {
	switch c.kind {
	case value.KindBool:
		if c.ints[i] != 0 {
			return append(dst, `{"k":"bool","b":true}`...)
		}
		return append(dst, `{"k":"bool","b":false}`...)
	case value.KindInt:
		dst = append(dst, `{"k":"int","n":`...)
		dst = strconv.AppendInt(dst, c.ints[i], 10)
		return append(dst, '}')
	case value.KindFloat:
		return appendFloatValueJSON(dst, c.flts[i])
	case value.KindString:
		dst = append(dst, `{"k":"string","s":`...)
		dst = appendJSONString(dst, c.StrAt(i))
		return append(dst, '}')
	case value.KindTime:
		dst = append(dst, `{"k":"time","t":"`...)
		dst = appendRFC3339(dst, c.ints[i])
		return append(dst, '"', '}')
	case value.KindSpan:
		dst = append(dst, `{"k":"span","t":"`...)
		dst = appendRFC3339(dst, c.ints[i])
		dst = append(dst, `","t2":"`...)
		dst = appendRFC3339(dst, c.ends[i])
		return append(dst, '"', '}')
	default:
		return appendBoxedJSON(dst, c.boxd[i])
	}
}

// appendBoxedJSON renders a boxed value, recursing into lists.
func appendBoxedJSON(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, `{"k":"null"}`...)
	case value.KindBool:
		if v.BoolVal() {
			return append(dst, `{"k":"bool","b":true}`...)
		}
		return append(dst, `{"k":"bool","b":false}`...)
	case value.KindInt:
		dst = append(dst, `{"k":"int","n":`...)
		dst = strconv.AppendInt(dst, v.IntVal(), 10)
		return append(dst, '}')
	case value.KindFloat:
		return appendFloatValueJSON(dst, v.FloatVal())
	case value.KindString:
		dst = append(dst, `{"k":"string","s":`...)
		dst = appendJSONString(dst, v.StrVal())
		return append(dst, '}')
	case value.KindTime:
		dst = append(dst, `{"k":"time","t":"`...)
		dst = appendRFC3339(dst, v.TimeNanosVal())
		return append(dst, '"', '}')
	case value.KindSpan:
		s, e := v.SpanBounds()
		dst = append(dst, `{"k":"span","t":"`...)
		dst = appendRFC3339(dst, s)
		dst = append(dst, `","t2":"`...)
		dst = appendRFC3339(dst, e)
		return append(dst, '"', '}')
	default: // list
		dst = append(dst, `{"k":"list","l":[`...)
		for i := 0; i < v.ListLen(); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendBoxedJSON(dst, v.ListAt(i))
		}
		return append(dst, ']', '}')
	}
}

// appendFloatValueJSON renders a float cell. Finite floats use the exact
// encoding/json float formatter; NaN/Inf travel in the string slot, as
// value.Value.MarshalJSON does — spelled exactly as fmt's %g verb renders
// them ("NaN", "+Inf", "-Inf"), appended directly so the non-finite path
// allocates nothing.
func appendFloatValueJSON(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		dst = append(dst, `{"k":"float","s":"`...)
		switch {
		case math.IsNaN(f):
			dst = append(dst, `NaN`...)
		case f > 0:
			dst = append(dst, `+Inf`...)
		default:
			dst = append(dst, `-Inf`...)
		}
		return append(dst, '"', '}')
	}
	dst = append(dst, `{"k":"float","f":`...)
	dst = appendJSONFloat(dst, f)
	return append(dst, '}')
}

// appendJSONFloat replicates encoding/json's float64 encoder: shortest
// round-trip form, 'f' format unless the magnitude calls for 'e', with the
// exponent's leading zero trimmed.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendRFC3339 renders Unix nanoseconds as UTC RFC3339Nano — the time
// wire format. No output byte needs JSON escaping.
func appendRFC3339(dst []byte, nanos int64) []byte {
	return time.Unix(0, nanos).UTC().AppendFormat(dst, time.RFC3339Nano)
}

// appendJSONString replicates encoding/json's string encoder with HTML
// escaping on (the package default, and what the server's json.Encoder
// uses): quotes, backslashes, control characters, <, >, &, invalid UTF-8,
// and U+2028/U+2029 are escaped; everything else passes through.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// jsonSafe reports whether an ASCII byte passes through encoding/json's
// HTML-escaping encoder unescaped.
func jsonSafe(b byte) bool {
	if b < 0x20 || b == '"' || b == '\\' {
		return false
	}
	if b == '<' || b == '>' || b == '&' {
		return false
	}
	return true
}
