package semantics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Schema maps dataset column names to their semantic entries. Schemas are
// the sole input to the derivation engine's search: derivations compute
// derived schemas without touching data (§5.2).
type Schema map[string]Entry

// NewSchema builds a schema from alternating column name / Entry pairs.
func NewSchema(pairs ...any) Schema {
	if len(pairs)%2 != 0 {
		panic("semantics.NewSchema: odd number of arguments")
	}
	s := make(Schema, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("semantics.NewSchema: column name must be a string")
		}
		e, ok := pairs[i+1].(Entry)
		if !ok {
			panic("semantics.NewSchema: entry must be a semantics.Entry")
		}
		s[name] = e
	}
	return s
}

// Clone returns an independent copy of the schema.
func (s Schema) Clone() Schema {
	c := make(Schema, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Columns returns all column names, sorted.
func (s Schema) Columns() []string {
	cols := make([]string, 0, len(s))
	for c := range s {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// ColumnsWhere returns the sorted columns whose entry satisfies pred.
func (s Schema) ColumnsWhere(pred func(Entry) bool) []string {
	var cols []string
	for c, e := range s {
		if pred(e) {
			cols = append(cols, c)
		}
	}
	sort.Strings(cols)
	return cols
}

// DomainColumns returns the sorted domain columns.
func (s Schema) DomainColumns() []string {
	return s.ColumnsWhere(func(e Entry) bool { return e.Relation == Domain })
}

// ValueColumns returns the sorted value columns.
func (s Schema) ValueColumns() []string {
	return s.ColumnsWhere(func(e Entry) bool { return e.Relation == Value })
}

// DomainDimensions returns the sorted set of dimensions covered by domain
// columns.
func (s Schema) DomainDimensions() []string {
	set := map[string]bool{}
	for _, e := range s {
		if e.Relation == Domain {
			set[e.Dimension] = true
		}
	}
	dims := make([]string, 0, len(set))
	for d := range set {
		dims = append(dims, d)
	}
	sort.Strings(dims)
	return dims
}

// ColumnsOnDimension returns the sorted columns with the given relation type
// and dimension.
func (s Schema) ColumnsOnDimension(rel RelationType, dim string) []string {
	return s.ColumnsWhere(func(e Entry) bool {
		return e.Relation == rel && e.Dimension == dim
	})
}

// HasDomainDimension reports whether any domain column lies on dim.
func (s Schema) HasDomainDimension(dim string) bool {
	for _, e := range s {
		if e.Relation == Domain && e.Dimension == dim {
			return true
		}
	}
	return false
}

// HasValueDimension reports whether any value column lies on dim.
func (s Schema) HasValueDimension(dim string) bool {
	for _, e := range s {
		if e.Relation == Value && e.Dimension == dim {
			return true
		}
	}
	return false
}

// SharedDomainDimensions returns the sorted dimensions that appear as
// domains in both schemas — the precondition for a combination (§4.3).
func (s Schema) SharedDomainDimensions(o Schema) []string {
	mine := map[string]bool{}
	for _, e := range s {
		if e.Relation == Domain {
			mine[e.Dimension] = true
		}
	}
	var shared []string
	seen := map[string]bool{}
	for _, e := range o {
		if e.Relation == Domain && mine[e.Dimension] && !seen[e.Dimension] {
			shared = append(shared, e.Dimension)
			seen[e.Dimension] = true
		}
	}
	sort.Strings(shared)
	return shared
}

// Merge combines two schemas for a join result. Columns present in both must
// carry identical entries; otherwise the merge fails (a homonym across
// datasets).
func (s Schema) Merge(o Schema) (Schema, error) {
	m := s.Clone()
	for c, e := range o {
		if prev, ok := m[c]; ok && prev != e {
			return nil, fmt.Errorf("semantics: column %q has conflicting entries %s vs %s", c, prev, e)
		}
		m[c] = e
	}
	return m, nil
}

// Equal reports whether two schemas are identical.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for c, e := range s {
		oe, ok := o[c]
		if !ok || oe != e {
			return false
		}
	}
	return true
}

// Validate checks every entry against the dictionary.
func (s Schema) Validate(d *Dictionary) error {
	for _, c := range s.Columns() {
		if err := d.ValidateEntry(c, s[c]); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint returns a canonical string identifying the schema, used as a
// memoization key in the derivation engine and as a cache key component.
func (s Schema) Fingerprint() string {
	var b strings.Builder
	for _, c := range s.Columns() {
		e := s[c]
		fmt.Fprintf(&b, "%s=%s;", c, e)
	}
	return b.String()
}

// String renders the schema deterministically.
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range s.Columns() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", c, s[c])
	}
	b.WriteByte('}')
	return b.String()
}

// MarshalJSON encodes the schema as an object.
func (s Schema) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]Entry(s))
}

// UnmarshalJSON decodes the object form.
func (s *Schema) UnmarshalJSON(data []byte) error {
	var m map[string]Entry
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*s = Schema(m)
	return nil
}
