package server

import (
	"fmt"
	"sort"
	"sync"

	"scrubjay/internal/catalog"
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
	"scrubjay/internal/value"
)

// Store holds the served catalog as materialized frames plus schemas.
// Frames are stored rather than datasets because an RDD is pinned to the
// rdd.Context that built it: every request gets its own Context bound to
// the request's Go context (for cancellation), and Snapshot rebuilds cheap
// lazy datasets on it. Stored frames and schemas are immutable once
// registered — registration swaps whole entries, never mutates — so
// snapshots share them safely across requests.
type Store struct {
	mu       sync.Mutex
	datasets map[string]*storedDataset
	// version counts catalog mutations; it prefixes every plan-cache key,
	// so a hot reload naturally invalidates cached plans.
	version int64
	// stats, when attached, receives table statistics for every
	// registered dataset — the ingest half of cost-based planning.
	stats *stats.Store
}

// storedDataset is one registered dataset: its frames, one per partition,
// built once at registration and shared by every snapshot.
type storedDataset struct {
	schema semantics.Schema
	frames []*frame.Frame
	rows   int64
}

// NewStore returns an empty catalog store.
func NewStore() *Store {
	return &Store{datasets: map[string]*storedDataset{}}
}

// LoadDir loads every dataset in a catalog directory (see
// internal/catalog) and installs the frames its wrappers built.
func (s *Store) LoadDir(dir string, workers int) error {
	cat, _, err := catalog.Load(rdd.NewContext(workers), dir)
	if err != nil {
		return err
	}
	for name, ds := range cat {
		if _, err := s.install(name, ds, true); err != nil {
			return err
		}
	}
	return nil
}

// Register pivots rows into parts partitions (at least one) and installs
// them under name, as install does. The caller must not mutate rows or
// schema afterwards.
func (s *Store) Register(name string, rows []value.Row, schema semantics.Schema, parts int, replace bool) (DatasetInfo, error) {
	return s.install(name, dataset.FromRowsColumnar(rdd.NewContext(1), name, rows, schema, max(parts, 1)), replace)
}

// install materializes ds's frames and installs (or, with replace,
// overwrites) them under name, returning the entry installed.
func (s *Store) install(name string, ds *dataset.Dataset, replace bool) (DatasetInfo, error) {
	schema := ds.Schema()
	if name == "" {
		return DatasetInfo{}, fmt.Errorf("store: dataset name is required")
	}
	if len(schema) == 0 {
		return DatasetInfo{}, fmt.Errorf("store: dataset %q needs a schema", name)
	}
	// Materialize outside the lock: this is where a lazy dataset pivots.
	frames := ds.Frames().Collect()
	s.mu.Lock()
	if _, ok := s.datasets[name]; ok && !replace {
		s.mu.Unlock()
		return DatasetInfo{}, fmt.Errorf("store: dataset %q already registered (set replace)", name)
	}
	d := &storedDataset{schema: schema, frames: frames}
	for _, f := range frames {
		d.rows += int64(f.NumRows())
	}
	s.datasets[name] = d
	s.version++
	st := s.stats
	s.mu.Unlock()
	// Profile outside the lock: ingest scans every cell, and the stats
	// store has its own synchronization.
	st.IngestFrames(name, frames, schema)
	return d.info(name), nil
}

// AttachStats connects a statistics store: every already-registered dataset
// is profiled immediately and future registrations profile on the way in.
// A nil store detaches (and is the default — serving without statistics
// skips ingest entirely).
func (s *Store) AttachStats(st *stats.Store) {
	s.mu.Lock()
	s.stats = st
	entries := make(map[string]*storedDataset, len(s.datasets))
	for name, d := range s.datasets {
		entries[name] = d
	}
	s.mu.Unlock()
	if st == nil {
		return
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.IngestFrames(name, entries[name].frames, entries[name].schema)
	}
}

// Version reports the catalog mutation counter.
func (s *Store) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Len reports the number of registered datasets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.datasets)
}

// Schemas snapshots the dataset schemas plus the version they belong to —
// all the engine needs for its semantics-only plan search.
func (s *Store) Schemas() (map[string]semantics.Schema, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]semantics.Schema, len(s.datasets))
	for name, d := range s.datasets {
		out[name] = d.schema
	}
	return out, s.version
}

// Snapshot builds an execution catalog on the given (request-bound) rdd
// context. Every dataset exposes the frames pre-built at registration, so
// derivations run on the vectorized path and no request pays the
// row→column pivot. Dataset construction is lazy — no partition work runs
// here — and the frames are shared, so a snapshot is cheap. The entry refs
// are copied under the lock; datasets are built after it is released. The
// unnamed bool is ignored: it stays only so existing two-argument callers
// (the benchmark harness) keep compiling.
func (s *Store) Snapshot(rc *rdd.Context, _ bool) (pipeline.Catalog, map[string]semantics.Schema, int64) {
	s.mu.Lock()
	entries := make(map[string]*storedDataset, len(s.datasets))
	for name, d := range s.datasets {
		entries[name] = d
	}
	version := s.version
	s.mu.Unlock()
	cat := make(pipeline.Catalog, len(entries))
	schemas := make(map[string]semantics.Schema, len(entries))
	for name, d := range entries {
		cat[name] = dataset.FromFrames(rc, name, d.frames, d.schema)
		schemas[name] = d.schema
	}
	return cat, schemas, version
}

// Info lists the registered datasets, sorted by name.
func (s *Store) Info() []DatasetInfo {
	s.mu.Lock()
	out := make([]DatasetInfo, 0, len(s.datasets))
	for name, d := range s.datasets {
		out = append(out, d.info(name))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (d *storedDataset) info(name string) DatasetInfo {
	return DatasetInfo{Name: name, Rows: d.rows, Partitions: len(d.frames), Schema: d.schema}
}
