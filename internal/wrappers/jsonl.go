package wrappers

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/value"
)

// readJSONL loads a JSON-lines file of tagged-value rows plus its schema
// sidecar. This is ScrubJay's lossless interchange format: every value kind
// round-trips exactly.
func readJSONL(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
	schema, err := LoadSchema(src.Path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(src.Path)
	if err != nil {
		return nil, fmt.Errorf("wrappers: jsonl: %w", err)
	}
	defer f.Close()
	var rows []value.Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var row value.Row
		if err := json.Unmarshal(text, &row); err != nil {
			return nil, fmt.Errorf("wrappers: jsonl %s line %d: %w", src.Path, line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wrappers: jsonl %s: %w", src.Path, err)
	}
	return dataset.FromRowsColumnar(ctx, datasetName(src), rows, schema, src.Partitions), nil
}

// writeJSONL stores a dataset as one tagged-JSON row per line plus a schema
// sidecar.
func writeJSONL(ds *dataset.Dataset, dst Source) error {
	if err := SaveSchema(dst.Path, ds.Schema()); err != nil {
		return err
	}
	return writeFile("jsonl", dst.Path, func(w *bufio.Writer) error {
		for _, row := range ds.Collect() {
			data, err := json.Marshal(row)
			if err != nil {
				return err
			}
			if _, err := w.Write(data); err != nil {
				return err
			}
			if err := w.WriteByte('\n'); err != nil {
				return err
			}
		}
		return nil
	})
}
