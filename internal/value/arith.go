package value

import (
	"errors"
	"fmt"
)

// Arithmetic errors.
var (
	ErrNotNumeric   = errors.New("value: operand is not numeric")
	ErrDivideByZero = errors.New("value: division by zero")
)

// Add returns v + o for numeric operands. Two ints produce an int;
// any float operand produces a float. Adding an int/float to a time
// shifts the time by that many seconds.
func Add(v, o Value) (Value, error) {
	if v.kind == KindTime && o.IsNumeric() {
		sec, _ := o.AsFloat()
		return TimeNanos(v.num + int64(sec*1e9)), nil
	}
	if o.kind == KindTime && v.IsNumeric() {
		return Add(o, v)
	}
	if v.kind == KindInt && o.kind == KindInt {
		return Int(v.num + o.num), nil
	}
	a, aok := v.AsFloat()
	b, bok := o.AsFloat()
	if !aok || !bok {
		return Null(), fmt.Errorf("%w: %s + %s", ErrNotNumeric, v.kind, o.kind)
	}
	return Float(a + b), nil
}

// Sub returns v - o. Subtracting two times yields a float number of seconds.
func Sub(v, o Value) (Value, error) {
	if v.kind == KindTime && o.kind == KindTime {
		return Float(float64(v.num-o.num) / 1e9), nil
	}
	if v.kind == KindTime && o.IsNumeric() {
		sec, _ := o.AsFloat()
		return TimeNanos(v.num - int64(sec*1e9)), nil
	}
	if v.kind == KindInt && o.kind == KindInt {
		return Int(v.num - o.num), nil
	}
	a, aok := v.AsFloat()
	b, bok := o.AsFloat()
	if !aok || !bok {
		return Null(), fmt.Errorf("%w: %s - %s", ErrNotNumeric, v.kind, o.kind)
	}
	return Float(a - b), nil
}

// Div returns v / o as a float.
func Div(v, o Value) (Value, error) {
	a, aok := v.AsFloat()
	b, bok := o.AsFloat()
	if !aok || !bok {
		return Null(), fmt.Errorf("%w: %s / %s", ErrNotNumeric, v.kind, o.kind)
	}
	if b == 0 {
		return Null(), ErrDivideByZero
	}
	return Float(a / b), nil
}

// Mean averages a non-empty set of numeric (or time) values. Times average
// to a time; numerics average to a float. Nulls are skipped; an all-null
// input yields null.
func Mean(vs []Value) Value {
	var sum float64
	n := 0
	times := 0
	for _, v := range vs {
		if v.IsNull() {
			continue
		}
		if v.kind == KindTime {
			times++
		}
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		sum += f
		n++
	}
	if n == 0 {
		return Null()
	}
	m := sum / float64(n)
	if times == n {
		return TimeNanos(int64(m * 1e9))
	}
	return Float(m)
}

// Lerp linearly interpolates between a and b at parameter t in [0,1].
// Times interpolate to times; numerics to floats. Non-interpolable kinds
// return a when t < 0.5 and b otherwise (nearest).
func Lerp(a, b Value, t float64) Value {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	fa, aok := a.AsFloat()
	fb, bok := b.AsFloat()
	if aok && bok {
		var m float64
		switch {
		case t == 0:
			m = fa
		case t == 1:
			m = fb
		default:
			// The two-product form avoids overflow when fb-fa exceeds the
			// float range at the endpoints.
			m = fa*(1-t) + fb*t
		}
		if a.kind == KindTime && b.kind == KindTime {
			return TimeNanos(int64(m * 1e9))
		}
		if a.kind == KindInt && b.kind == KindInt && fa == fb {
			return a
		}
		return Float(m)
	}
	if t < 0.5 {
		return a
	}
	return b
}
