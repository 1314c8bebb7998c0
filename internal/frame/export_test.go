package frame

import (
	"strings"

	"scrubjay/internal/value"
)

// StrColumnOf builds a string column whose cell i holds cells[i] when
// present[i] and is absent otherwise: dictionary-encoded over entries when
// entries is non-nil (every present cell must be one of them, and entries
// must not be empty) and plain when it is nil. It lets tests outside the
// package build the same cells both ways whatever their distinct-value
// count.
func StrColumnOf(name string, cells []string, present []bool, entries []string) Column {
	n := len(cells)
	c := Column{name: name, kind: value.KindString, n: n}
	for i, p := range present {
		if !p && c.pres == nil {
			c.pres = newBits(n)
			for k := 0; k < i; k++ {
				setBit(c.pres, k)
			}
		}
		if p && c.pres != nil {
			setBit(c.pres, i)
		}
	}
	if entries == nil {
		var sb strings.Builder
		c.soff = make([]uint32, 1, n+1)
		for i, s := range cells {
			if present[i] {
				sb.WriteString(s)
			}
			c.soff = append(c.soff, uint32(sb.Len()))
		}
		c.sdat = sb.String()
		return c
	}
	index := map[string]uint32{}
	for k := len(entries) - 1; k >= 0; k-- {
		index[entries[k]] = uint32(k)
	}
	c.dict, c.codes = &dict{vals: entries}, make([]uint32, n)
	for i, s := range cells {
		if present[i] {
			code, ok := index[s]
			if !ok {
				panic("StrColumnOf: cell missing from the dictionary")
			}
			c.codes[i] = code
		}
	}
	return c
}

// DictEntries returns the entries of a dictionary-encoded column's
// dictionary (nil for any other column), so tests outside the package can
// compare two columns' dictionaries, not only their cells.
func DictEntries(c *Column) []string {
	if c.dict == nil {
		return nil
	}
	return c.dict.vals
}
