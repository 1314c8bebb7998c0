// Package stats exercises the determinism analyzer over statistics-store
// shaped code (the package name puts it in the reproducible-derivation-core
// scope: stored statistics steer plan choice, so their encoding and epoch
// logic must replay bit-for-bit).
package stats

import (
	"math/rand"
	"sort"
	"time"

	"sjvettest/rdd"
)

// TableFact is a toy statistics-store entry.
type TableFact struct {
	Rows    int64
	Updated int64
}

// ObserveNow stamps a fact with the wall clock: replaying the same
// observation stream would encode different bytes.
func ObserveNow(rows int64) TableFact {
	return TableFact{Rows: rows, Updated: time.Now().UnixNano()}
}

// SampleRows draws a reservoir index from the global math/rand source.
func SampleRows(n int) int {
	return rand.Intn(n)
}

// SeededSample is clean: the generator is explicitly seeded.
func SeededSample(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// EncodeOrder leaks map iteration order into the serialized fact list.
func EncodeOrder(facts map[string]TableFact) []string {
	var names []string
	for name := range facts {
		names = append(names, name)
	}
	return names
}

// EncodeSorted is clean: names are sorted before they escape.
func EncodeSorted(facts map[string]TableFact) []string {
	var names []string
	for name := range facts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TotalRows is clean: the accumulation is order-independent.
func TotalRows(facts map[string]TableFact) int64 {
	var total int64
	for _, f := range facts {
		total += f.Rows
	}
	return total
}

// ProfileCollected is clean: the action returns the rows and the counting
// happens outside any compute closure.
func ProfileCollected(rows []int) int {
	r := rdd.Parallelize(rows)
	total := 0
	for _, v := range r.Collect() {
		total += v
	}
	return total
}
