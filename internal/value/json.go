package value

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// jsonValue is the wire form of a Value. Scalars use a compact one-field
// form; the kind tag keeps int/float/time distinctions that raw JSON
// numbers would lose.
type jsonValue struct {
	K  string            `json:"k"`
	N  *int64            `json:"n,omitempty"`  // int payload
	F  *float64          `json:"f,omitempty"`  // float payload
	B  *bool             `json:"b,omitempty"`  // bool payload
	S  *string           `json:"s,omitempty"`  // string payload
	T  *string           `json:"t,omitempty"`  // RFC3339 time payload
	T2 *string           `json:"t2,omitempty"` // RFC3339 span end
	L  []json.RawMessage `json:"l,omitempty"`  // list payload
}

// MarshalJSON encodes the value with an explicit kind tag.
func (v Value) MarshalJSON() ([]byte, error) {
	jv := jsonValue{K: v.kind.String()}
	switch v.kind {
	case KindNull:
	case KindBool:
		b := v.BoolVal()
		jv.B = &b
	case KindInt:
		n := v.num
		jv.N = &n
	case KindFloat:
		f := math.Float64frombits(uint64(v.num))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// JSON cannot carry NaN/Inf as numbers; use the string slot.
			s := fmt.Sprintf("%g", f)
			jv.S = &s
		} else {
			jv.F = &f
		}
	case KindString:
		s := v.str
		jv.S = &s
	case KindTime:
		t := v.TimeVal().Format(time.RFC3339Nano)
		jv.T = &t
	case KindSpan:
		t1 := time.Unix(0, v.num).UTC().Format(time.RFC3339Nano)
		t2 := time.Unix(0, v.num2).UTC().Format(time.RFC3339Nano)
		jv.T = &t1
		jv.T2 = &t2
	case KindList:
		vl := *v.list
		jv.L = make([]json.RawMessage, len(vl))
		for i, e := range vl {
			raw, err := json.Marshal(e)
			if err != nil {
				return nil, err
			}
			jv.L[i] = raw
		}
	}
	return json.Marshal(jv)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	k, err := KindFromString(jv.K)
	if err != nil {
		return err
	}
	switch k {
	case KindNull:
		*v = Null()
	case KindBool:
		if jv.B == nil {
			return fmt.Errorf("value: bool payload missing")
		}
		*v = Bool(*jv.B)
	case KindInt:
		if jv.N == nil {
			return fmt.Errorf("value: int payload missing")
		}
		*v = Int(*jv.N)
	case KindFloat:
		switch {
		case jv.F != nil:
			*v = Float(*jv.F)
		case jv.S != nil:
			var f float64
			if _, err := fmt.Sscanf(*jv.S, "%g", &f); err != nil {
				return fmt.Errorf("value: bad float payload %q", *jv.S)
			}
			*v = Float(f)
		default:
			return fmt.Errorf("value: float payload missing")
		}
	case KindString:
		if jv.S == nil {
			return fmt.Errorf("value: string payload missing")
		}
		*v = Str(*jv.S)
	case KindTime:
		if jv.T == nil {
			return fmt.Errorf("value: time payload missing")
		}
		t, err := time.Parse(time.RFC3339Nano, *jv.T)
		if err != nil {
			return err
		}
		*v = Time(t)
	case KindSpan:
		if jv.T == nil || jv.T2 == nil {
			return fmt.Errorf("value: span payload missing")
		}
		t1, err := time.Parse(time.RFC3339Nano, *jv.T)
		if err != nil {
			return err
		}
		t2, err := time.Parse(time.RFC3339Nano, *jv.T2)
		if err != nil {
			return err
		}
		*v = SpanOf(t1, t2)
	case KindList:
		vs := make([]Value, len(jv.L))
		for i, raw := range jv.L {
			if err := json.Unmarshal(raw, &vs[i]); err != nil {
				return err
			}
		}
		*v = listOf(vs)
	}
	return nil
}
