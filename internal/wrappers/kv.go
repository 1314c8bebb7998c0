package wrappers

import (
	"encoding/json"
	"fmt"

	"scrubjay/internal/dataset"
	"scrubjay/internal/kvstore"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// SchemaKey is the reserved key under which a table's schema is stored.
const SchemaKey = "\x00schema"

// RowKey renders the zero-padded key for the i'th row of a table, so scans
// return rows in insertion order.
func RowKey(i int) string { return fmt.Sprintf("row:%012d", i) }

// readKV loads a table of binary-encoded rows from the embedded key-value
// store (the repo's Cassandra stand-in). The table's schema lives as JSON
// under a reserved key inside the same table.
func readKV(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
	store, err := kvstore.Open(src.Path)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	tbl, err := store.Table(src.Table)
	if err != nil {
		return nil, err
	}
	raw, err := tbl.Get(SchemaKey)
	if err != nil {
		return nil, fmt.Errorf("wrappers: kv table %q has no schema record: %w", src.Table, err)
	}
	var schema semantics.Schema
	if err := json.Unmarshal(raw, &schema); err != nil {
		return nil, fmt.Errorf("wrappers: kv table %q schema: %w", src.Table, err)
	}
	var rows []value.Row
	var scanErr error
	tbl.Scan("", func(key string, val []byte) bool {
		if key == SchemaKey {
			return true
		}
		row, _, err := value.DecodeRow(val)
		if err != nil {
			scanErr = fmt.Errorf("wrappers: kv table %q key %q: %w", src.Table, key, err)
			return false
		}
		rows = append(rows, row)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return dataset.FromRowsColumnar(ctx, datasetName(src), rows, schema, src.Partitions), nil
}

// writeKV stores a dataset as a key-value table with zero-padded row keys
// (so scans return rows in insertion order) and the schema under a reserved
// key, replacing what the table held: rows past the new count are deleted.
func writeKV(ds *dataset.Dataset, dst Source) (err error) {
	store, err := kvstore.Open(dst.Path)
	if err != nil {
		return err
	}
	defer closeKeep(store, &err)
	tbl, err := store.Table(dst.Table)
	if err != nil {
		return err
	}
	schemaData, err := json.Marshal(ds.Schema())
	if err != nil {
		return err
	}
	if err := tbl.Put(SchemaKey, schemaData); err != nil {
		return err
	}
	rows := ds.Collect()
	for i, row := range rows {
		if err := tbl.Put(RowKey(i), row.AppendBinary(nil)); err != nil {
			return err
		}
	}
	for _, key := range tbl.Keys("row:")[len(rows):] {
		if err := tbl.Delete(key); err != nil {
			return err
		}
	}
	return tbl.Flush()
}
