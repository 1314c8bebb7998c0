// Package catalog loads directories of annotated datasets — the shared
// entry point for local queries (scrubjay query/run) and the serving
// daemon (scrubjay serve). A catalog directory holds data files in any wrapped
// format (§5.2 of the paper): *.jsonl, *.csv, *.bin with schema sidecars,
// plus kv-store tables when .log segments are present.
package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scrubjay/internal/kvstore"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
	"scrubjay/internal/wrappers"
)

// Load reads every *.jsonl, *.csv, and *.bin file (with schema sidecars
// where applicable) in dir, plus every table of any kv-store .log files
// present; dataset names are file basenames / table names.
func Load(ctx *rdd.Context, dir string) (pipeline.Catalog, map[string]semantics.Schema, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	cat := pipeline.Catalog{}
	schemas := map[string]semantics.Schema{}
	add := func(name string, src wrappers.Source) error {
		ds, err := wrappers.Read(ctx, src)
		if err != nil {
			return fmt.Errorf("loading %s: %w", name, err)
		}
		cat[name] = ds
		schemas[name] = ds.Schema()
		return nil
	}
	hasKV := false
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var format string
		switch {
		case strings.HasSuffix(name, ".jsonl"):
			format = "jsonl"
		case strings.HasSuffix(name, ".csv"):
			format = "csv"
		case strings.HasSuffix(name, ".bin"):
			format = "bin"
		case strings.HasSuffix(name, ".log"):
			hasKV = true
			continue
		default:
			continue
		}
		base := name[:len(name)-len(filepath.Ext(name))]
		if err := add(base, wrappers.Source{Format: format, Path: filepath.Join(dir, name), Name: base}); err != nil {
			return nil, nil, err
		}
	}
	if hasKV {
		store, err := kvstore.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		names, err := store.TableNames()
		store.Close()
		if err != nil {
			return nil, nil, err
		}
		for _, table := range names {
			if err := add(table, wrappers.Source{Format: "kv", Path: dir, Table: table, Name: table}); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(cat) == 0 {
		return nil, nil, fmt.Errorf("catalog %s contains no datasets", dir)
	}
	return cat, schemas, nil
}

// Ingest profiles every catalog dataset into a statistics store: row
// cardinality plus per-column NDV and value ranges, keyed by dataset name.
// Datasets are profiled in sorted name order so the resulting store (and
// its epoch) is deterministic for a given catalog. A nil store is a no-op.
func Ingest(st *stats.Store, cat pipeline.Catalog, schemas map[string]semantics.Schema) {
	if st == nil {
		return
	}
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st.IngestFrames(n, cat[n].Frames().Collect(), schemas[n])
	}
}
