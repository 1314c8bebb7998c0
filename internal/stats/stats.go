// Package stats is ScrubJay's statistics store: the evidence base for
// cost-based derivation planning. It holds two kinds of facts:
//
//   - Table statistics (row counts, per-column distinct counts and numeric
//     ranges), computed at ingest time from the registered frames.
//   - Derivation statistics (observed row selectivity, per-row CPU time,
//     and shuffle volume), learned from executed queries' internal/obs span
//     trees via the Recorder.
//
// The engine's physical costing reads the store through nil-safe lookups:
// a missing fact yields a conservative default and leaves the estimate
// marked uninformed, so an empty store reproduces the structural heuristic
// exactly. Every mutation that could change a planning decision bumps the
// store's epoch; the serving layer keys its plan cache on the epoch so
// learned statistics invalidate stale plans (and only then).
//
// Serialization is deterministic — keys sort, floats round-trip — so a
// persisted store is diffable and golden-testable.
package stats

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"scrubjay/internal/frame"
	"scrubjay/internal/semantics"
)

// ColumnStats summarizes one column of an ingested dataset.
type ColumnStats struct {
	// NDV is the number of distinct values observed.
	NDV int64 `json:"ndv"`
	// Min/Max bound the numeric (or time, in seconds) values; meaningful
	// only when HasRange is set.
	Min      float64 `json:"min,omitempty"`
	Max      float64 `json:"max,omitempty"`
	HasRange bool    `json:"has_range,omitempty"`
}

// TableStats summarizes one ingested dataset.
type TableStats struct {
	Rows    int64                  `json:"rows"`
	Columns map[string]ColumnStats `json:"columns,omitempty"`
}

// DerivationStats accumulates observed executions of one derivation (keyed
// exactly by derivation + input source sets, or aggregated by derivation
// name). Sums, not averages, are stored so observations merge losslessly.
type DerivationStats struct {
	Observations int64 `json:"observations"`
	RowsIn       int64 `json:"rows_in"`
	RowsOut      int64 `json:"rows_out"`
	Micros       int64 `json:"micros"`
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
}

// Selectivity reports observed rows-out per row-in, when the evidence
// includes input rows.
func (d DerivationStats) Selectivity() (float64, bool) {
	if d.RowsIn <= 0 {
		return 0, false
	}
	return float64(d.RowsOut) / float64(d.RowsIn), true
}

// MicrosPerRow reports observed wall microseconds per input row.
func (d DerivationStats) MicrosPerRow() (float64, bool) {
	if d.RowsIn <= 0 {
		return 0, false
	}
	return float64(d.Micros) / float64(d.RowsIn), true
}

// BytesPerRow reports observed shuffle bytes per input row.
func (d DerivationStats) BytesPerRow() (float64, bool) {
	if d.RowsIn <= 0 || d.ShuffleBytes <= 0 {
		return 0, false
	}
	return float64(d.ShuffleBytes) / float64(d.RowsIn), true
}

func (d DerivationStats) add(o DerivationStats) DerivationStats {
	d.Observations += o.Observations
	d.RowsIn += o.RowsIn
	d.RowsOut += o.RowsOut
	d.Micros += o.Micros
	d.ShuffleBytes += o.ShuffleBytes
	return d
}

// DerivationKey canonicalizes a derivation observation key: the derivation
// name plus each input's sorted source-dataset set. A key with no inputs is
// the name-aggregated fallback bucket.
func DerivationKey(name string, inputs ...[]string) string {
	parts := []string{name}
	for _, in := range inputs {
		s := append([]string(nil), in...)
		sort.Strings(s)
		parts = append(parts, strings.Join(s, "+"))
	}
	return strings.Join(parts, "|")
}

// Store is a concurrency-safe statistics store. The zero value is not
// usable; construct with NewStore or LoadFile.
type Store struct {
	mu     sync.Mutex
	epoch  int64
	tables map[string]TableStats
	derivs map[string]DerivationStats
}

// NewStore returns an empty store at epoch 0.
func NewStore() *Store {
	return &Store{tables: map[string]TableStats{}, derivs: map[string]DerivationStats{}}
}

// Epoch counts planning-relevant mutations. The serving layer keys its plan
// cache on it: a bump invalidates every cached plan. Observation updates
// that merely refine already-known facts (same keys, drifting averages) do
// not bump it, so a steady-state workload keeps its cache hits.
func (s *Store) Epoch() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Table looks up ingest statistics for a dataset.
func (s *Store) Table(name string) (TableStats, bool) {
	if s == nil {
		return TableStats{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	return t, ok
}

// Derivation looks up observed statistics by exact key (see DerivationKey),
// falling back to the name-aggregated bucket when the exact input sets were
// never executed.
func (s *Store) Derivation(key string) (DerivationStats, bool) {
	if s == nil {
		return DerivationStats{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.derivs[key]; ok {
		return d, true
	}
	if i := strings.IndexByte(key, '|'); i > 0 {
		if d, ok := s.derivs[key[:i]]; ok {
			return d, true
		}
	}
	return DerivationStats{}, false
}

// SetTable installs ingest statistics for a dataset, bumping the epoch when
// the facts changed.
func (s *Store) SetTable(name string, t TableStats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.tables[name]; !ok || !tableEqual(old, t) {
		s.epoch++
	}
	s.tables[name] = t
}

func tableEqual(a, b TableStats) bool {
	if a.Rows != b.Rows || len(a.Columns) != len(b.Columns) {
		return false
	}
	for k, v := range a.Columns {
		if b.Columns[k] != v {
			return false
		}
	}
	return true
}

// Observe merges one derivation observation under both its exact key and
// its name-aggregated bucket. The epoch bumps only when the key is new or
// the observed selectivity moved by more than 25% since the last bump —
// hysteresis that keeps a steady-state serving workload from invalidating
// its own plan cache on every query.
func (s *Store) Observe(key string, obs DerivationStats) {
	if s == nil || obs.Observations <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, existed := s.derivs[key]
	merged := old.add(obs)
	s.derivs[key] = merged
	if name := key; strings.IndexByte(key, '|') > 0 {
		name = key[:strings.IndexByte(key, '|')]
		s.derivs[name] = s.derivs[name].add(obs)
	}
	if !existed {
		s.epoch++
		return
	}
	oldSel, okOld := old.Selectivity()
	newSel, okNew := merged.Selectivity()
	if okOld != okNew || (okOld && drifted(oldSel, newSel, 0.25)) {
		s.epoch++
	}
}

func drifted(a, b, frac float64) bool {
	if a == b {
		return false
	}
	base := a
	if base < 0 {
		base = -base
	}
	if base == 0 {
		return true
	}
	d := b - a
	if d < 0 {
		d = -d
	}
	return d/base > frac
}

// IngestFrames computes and installs table statistics for a dataset's
// frames: row count, per-column distinct counts, and numeric ranges.
// Domain and value columns both count — domain NDVs size join outputs,
// value ranges feed future zone-map work. Distinct values are counted
// kind-strictly, as join keys compare: Int(1), Float(1) and Str("1") are
// three values. Columns outside the schema are not profiled.
func (s *Store) IngestFrames(name string, frames []*frame.Frame, schema semantics.Schema) {
	if s == nil {
		return
	}
	cols := schema.Columns()
	t := TableStats{Columns: make(map[string]ColumnStats, len(cols))}
	for _, f := range frames {
		t.Rows += int64(f.NumRows())
	}
	var key []byte
	for _, c := range cols {
		distinct := map[string]bool{}
		var cs ColumnStats
		for _, f := range frames {
			col := f.Col(c)
			if col == nil {
				continue
			}
			for i := 0; i < f.NumRows(); i++ {
				if !col.Present(i) {
					continue
				}
				v := col.Value(i)
				// Look up before inserting: only a new key is copied.
				if key = v.AppendBinary(key[:0]); !distinct[string(key)] {
					distinct[string(key)] = true
				}
				if x, ok := v.AsFloat(); ok {
					if !cs.HasRange || x < cs.Min {
						cs.Min = x
					}
					if !cs.HasRange || x > cs.Max {
						cs.Max = x
					}
					cs.HasRange = true
				}
			}
		}
		cs.NDV = int64(len(distinct))
		t.Columns[c] = cs
	}
	s.SetTable(name, t)
}

// snapshot is the deterministic serialized form: sorted key/value lists,
// never maps, so encoded bytes are stable across runs and Go versions.
type snapshot struct {
	Epoch  int64          `json:"epoch"`
	Tables []tableEntry   `json:"tables,omitempty"`
	Derivs []derivedEntry `json:"derivations,omitempty"`
}

type tableEntry struct {
	Name    string        `json:"name"`
	Rows    int64         `json:"rows"`
	Columns []columnEntry `json:"columns,omitempty"`
}

type columnEntry struct {
	Name string `json:"name"`
	ColumnStats
}

type derivedEntry struct {
	Key string `json:"key"`
	DerivationStats
}

// Encode renders the store as deterministic, indented JSON.
func (s *Store) Encode() ([]byte, error) {
	s.mu.Lock()
	snap := snapshot{Epoch: s.epoch}
	tnames := make([]string, 0, len(s.tables))
	for n := range s.tables {
		tnames = append(tnames, n)
	}
	sort.Strings(tnames)
	for _, n := range tnames {
		t := s.tables[n]
		te := tableEntry{Name: n, Rows: t.Rows}
		cnames := make([]string, 0, len(t.Columns))
		for c := range t.Columns {
			cnames = append(cnames, c)
		}
		sort.Strings(cnames)
		for _, c := range cnames {
			te.Columns = append(te.Columns, columnEntry{Name: c, ColumnStats: t.Columns[c]})
		}
		snap.Tables = append(snap.Tables, te)
	}
	dkeys := make([]string, 0, len(s.derivs))
	for k := range s.derivs {
		dkeys = append(dkeys, k)
	}
	sort.Strings(dkeys)
	for _, k := range dkeys {
		snap.Derivs = append(snap.Derivs, derivedEntry{Key: k, DerivationStats: s.derivs[k]})
	}
	s.mu.Unlock()
	return json.MarshalIndent(snap, "", "  ")
}

// Decode replaces the store's contents with a previously encoded snapshot.
func (s *Store) Decode(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	tables := make(map[string]TableStats, len(snap.Tables))
	for _, te := range snap.Tables {
		t := TableStats{Rows: te.Rows}
		if len(te.Columns) > 0 {
			t.Columns = make(map[string]ColumnStats, len(te.Columns))
			for _, ce := range te.Columns {
				t.Columns[ce.Name] = ce.ColumnStats
			}
		}
		tables[te.Name] = t
	}
	derivs := make(map[string]DerivationStats, len(snap.Derivs))
	for _, de := range snap.Derivs {
		derivs[de.Key] = de.DerivationStats
	}
	s.mu.Lock()
	s.epoch, s.tables, s.derivs = snap.Epoch, tables, derivs
	s.mu.Unlock()
	return nil
}

// Save persists the store via temp file + rename, so readers never observe
// a partial snapshot.
func (s *Store) Save(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a persisted store. A missing file yields an empty store,
// so first boots need no special casing.
func LoadFile(path string) (*Store, error) {
	s := NewStore()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	if err := s.Decode(data); err != nil {
		return nil, fmt.Errorf("stats: %s: %w", path, err)
	}
	return s, nil
}

// Len reports how many table and derivation entries the store holds.
func (s *Store) Len() (tables, derivations int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables), len(s.derivs)
}
