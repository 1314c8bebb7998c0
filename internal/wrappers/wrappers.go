// Package wrappers implements ScrubJay's data wrappers and unwrappers
// (§4.1, §5.4 of the paper): pluggable functions that parse a storage
// format into a semantically annotated Dataset and write Datasets back out.
// Built-in formats are CSV (with a JSON schema sidecar), JSON-lines
// (lossless tagged values), and tables in the embedded key-value store.
// Their wrappers return frame datasets, pivoted once as they are read
// (dataset.FromRowsColumnar), so every partition of a low-cardinality
// string column codes against one dictionary.
// Custom formats register with RegisterFormat and participate in
// reproducible pipelines by name.
package wrappers

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"scrubjay/internal/atomicfile"
	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
)

// Source identifies a dataset in some storage format. It is the
// serializable form used by reproducible pipelines: a format name plus
// format-specific arguments.
type Source struct {
	// Format names the registered wrapper ("csv", "jsonl", "kv", ...).
	Format string `json:"format"`
	// Path is the file path (csv, jsonl) or store directory (kv).
	Path string `json:"path"`
	// Table is the table name within a store (kv only).
	Table string `json:"table,omitempty"`
	// Name overrides the dataset name; defaults to Path/Table.
	Name string `json:"name,omitempty"`
	// Partitions sets the partition count for the loaded RDD (0 = default).
	Partitions int `json:"partitions,omitempty"`
}

// Wrapper parses a Source into a Dataset.
type Wrapper func(ctx *rdd.Context, src Source) (*dataset.Dataset, error)

// Unwrapper writes a Dataset to a Source location.
type Unwrapper func(ds *dataset.Dataset, dst Source) error

var (
	regMu      sync.RWMutex
	wrappers   = map[string]Wrapper{}
	unwrappers = map[string]Unwrapper{}
)

// RegisterFormat installs a wrapper/unwrapper pair under a format name.
// Either function may be nil for read-only or write-only formats.
// Re-registering a name replaces the previous functions.
func RegisterFormat(name string, w Wrapper, u Unwrapper) {
	regMu.Lock()
	defer regMu.Unlock()
	if w != nil {
		wrappers[name] = w
	}
	if u != nil {
		unwrappers[name] = u
	}
}

// Formats lists registered format names, sorted.
func Formats() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	set := map[string]bool{}
	for n := range wrappers {
		set[n] = true
	}
	for n := range unwrappers {
		set[n] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Read loads a Source using its registered wrapper.
func Read(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
	regMu.RLock()
	w, ok := wrappers[src.Format]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wrappers: no wrapper registered for format %q", src.Format)
	}
	return w(ctx, src)
}

// Write stores a Dataset using the registered unwrapper for dst.Format.
func Write(ds *dataset.Dataset, dst Source) error {
	regMu.RLock()
	u, ok := unwrappers[dst.Format]
	regMu.RUnlock()
	if !ok {
		return fmt.Errorf("wrappers: no unwrapper registered for format %q", dst.Format)
	}
	return u(ds, dst)
}

func init() {
	RegisterFormat("csv", readCSV, writeCSV)
	RegisterFormat("jsonl", readJSONL, writeJSONL)
	RegisterFormat("kv", readKV, writeKV)
}

// SchemaSidecarPath is the conventional location of the schema that
// accompanies a data file.
func SchemaSidecarPath(dataPath string) string { return dataPath + ".schema.json" }

// SaveSchema writes a schema sidecar next to a data file.
func SaveSchema(dataPath string, s semantics.Schema) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(SchemaSidecarPath(dataPath), func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadSchema reads the schema sidecar for a data file.
func LoadSchema(dataPath string) (semantics.Schema, error) {
	data, err := os.ReadFile(SchemaSidecarPath(dataPath))
	if err != nil {
		return nil, fmt.Errorf("wrappers: schema sidecar: %w", err)
	}
	var s semantics.Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("wrappers: schema sidecar %s: %w", SchemaSidecarPath(dataPath), err)
	}
	return s, nil
}

// closeKeep closes c, keeping its error in *err unless *err already holds
// one. Deferred by the kv writer, whose close is the last step of the write.
func closeKeep(c io.Closer, err *error) {
	if cerr := c.Close(); *err == nil {
		*err = cerr
	}
}

func datasetName(src Source) string {
	if src.Name != "" {
		return src.Name
	}
	if src.Table != "" {
		return src.Table
	}
	return src.Path
}
