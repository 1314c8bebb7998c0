package value

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"strings"
)

// Row is a single record in a ScrubJay dataset: a variable-length tuple of
// named, heterogeneously typed elements. Rows are sparse — absent columns
// read as null — matching the paper's in-memory schema (§4.1).
type Row map[string]Value

// NewRow builds a row from alternating column name / Value pairs.
// It panics on an odd number of arguments or a non-string name; it is
// intended for literals in tests and generators.
func NewRow(pairs ...any) Row {
	if len(pairs)%2 != 0 {
		panic("value.NewRow: odd number of arguments")
	}
	r := make(Row, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("value.NewRow: column name must be a string")
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic("value.NewRow: column value must be a value.Value")
		}
		r[name] = v
	}
	return r
}

// Get returns the value of a column, or null when absent.
func (r Row) Get(col string) Value {
	if v, ok := r[col]; ok {
		return v
	}
	return Null()
}

// Has reports whether the row has a non-null value for col.
func (r Row) Has(col string) bool {
	v, ok := r[col]
	return ok && !v.IsNull()
}

// Clone returns a shallow copy of the row (Values are immutable, so a
// shallow copy is a safe independent row).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// With returns a copy of the row with col set to v.
func (r Row) With(col string, v Value) Row {
	c := r.Clone()
	c[col] = v
	return c
}

// Without returns a copy of the row with col removed.
func (r Row) Without(col string) Row {
	c := r.Clone()
	delete(c, col)
	return c
}

// Project returns a copy containing only the named columns (absent columns
// are skipped, not nulled).
func (r Row) Project(cols ...string) Row {
	c := make(Row, len(cols))
	for _, col := range cols {
		if v, ok := r[col]; ok {
			c[col] = v
		}
	}
	return c
}

// Columns returns the sorted column names present in the row.
func (r Row) Columns() []string {
	cols := make([]string, 0, len(r))
	for k := range r {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	return cols
}

// Merge returns a new row combining r and o. Columns present in both must
// hold equal values for the merge to be meaningful; o wins on conflict
// (combination operators check compatibility before merging).
func (r Row) Merge(o Row) Row {
	c := make(Row, len(r)+len(o))
	for k, v := range r {
		c[k] = v
	}
	for k, v := range o {
		c[k] = v
	}
	return c
}

// Equal reports whether two rows have identical columns and values.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// KeyOn computes a deterministic hash of the row restricted to the given
// columns, in the order given. Used as a shuffle/join key.
func (r Row) KeyOn(cols []string) uint64 {
	h := fnv.New64a()
	for _, col := range cols {
		h.Write([]byte(col))
		h.Write([]byte{0})
		r.Get(col).hashInto(h)
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// KeyStringOn renders the key columns as a canonical string, usable as a
// map key where hash collisions must be impossible. Each value is its kind
// byte before its rendering, so the key is as kind-strict as Equal: Int(1)
// and Str("1") key apart, and so do an absent cell and Str("").
func (r Row) KeyStringOn(cols []string) string {
	var b strings.Builder
	for _, col := range cols {
		v := r.Get(col)
		b.WriteString(col)
		b.WriteByte(0)
		b.WriteByte(byte(v.Kind()))
		b.WriteString(v.String())
		b.WriteByte(1)
	}
	return b.String()
}

// String renders the row deterministically (sorted columns) for display.
func (r Row) String() string {
	cols := r.Columns()
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
		b.WriteString("=")
		b.WriteString(r[c].String())
	}
	b.WriteByte('}')
	return b.String()
}

// MarshalJSON encodes the row as a JSON object of tagged values. The type
// conversion sheds the MarshalJSON method (so encoding/json takes its
// plain-map path instead of recursing) without copying the map.
func (r Row) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]Value(r))
}

// UnmarshalJSON decodes the object form produced by MarshalJSON.
func (r *Row) UnmarshalJSON(data []byte) error {
	var m map[string]Value
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*r = Row(m)
	return nil
}
