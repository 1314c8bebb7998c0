package wrappers

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"os"
	"time"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/units"
	"scrubjay/internal/value"
)

// parseCell interprets a CSV cell according to the column's semantic entry,
// so that "1490000000" in a datetime column becomes a timestamp rather than
// an integer. Unknown shapes fall back to generic parsing.
func parseCell(text string, e semantics.Entry) (value.Value, error) {
	if text == "" {
		return value.Null(), nil
	}
	switch {
	case e.Units == "datetime":
		if t, err := time.Parse(time.RFC3339Nano, text); err == nil {
			return value.Time(t), nil
		}
		v := value.Parse(text)
		if n, ok := v.AsInt(); ok {
			// Bare integers in datetime columns are Unix seconds.
			return value.TimeNanos(n * 1e9), nil
		}
		return value.Null(), fmt.Errorf("cannot parse %q as datetime", text)
	case e.Units == "timespan":
		v := value.Parse(text)
		if v.Kind() != value.KindSpan {
			return value.Null(), fmt.Errorf("cannot parse %q as timespan", text)
		}
		return v, nil
	default:
		if _, isList := units.IsList(e.Units); isList {
			v := value.Parse(text)
			if v.Kind() != value.KindList {
				return value.Null(), fmt.Errorf("cannot parse %q as list", text)
			}
			return v, nil
		}
		return value.Parse(text), nil
	}
}

// readCSV loads a CSV file with a header row and a schema sidecar.
func readCSV(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
	schema, err := LoadSchema(src.Path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(src.Path)
	if err != nil {
		return nil, fmt.Errorf("wrappers: csv: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("wrappers: csv %s: %w", src.Path, err)
	}
	if len(records) == 0 {
		return dataset.FromRowsColumnar(ctx, datasetName(src), nil, schema, src.Partitions), nil
	}
	header := records[0]
	for _, col := range header {
		if _, ok := schema[col]; !ok {
			return nil, fmt.Errorf("wrappers: csv %s: column %q missing from schema sidecar", src.Path, col)
		}
	}
	rows := make([]value.Row, 0, len(records)-1)
	for li, rec := range records[1:] {
		row := make(value.Row, len(header))
		for i, cell := range rec {
			if i >= len(header) {
				return nil, fmt.Errorf("wrappers: csv %s line %d: more cells than header columns", src.Path, li+2)
			}
			col := header[i]
			v, err := parseCell(cell, schema[col])
			if err != nil {
				return nil, fmt.Errorf("wrappers: csv %s line %d column %q: %w", src.Path, li+2, col, err)
			}
			if !v.IsNull() {
				row[col] = v
			}
		}
		rows = append(rows, row)
	}
	return dataset.FromRowsColumnar(ctx, datasetName(src), rows, schema, src.Partitions), nil
}

// writeCSV stores a dataset as a CSV file with a header row plus a schema
// sidecar, so that reading it back reproduces the dataset.
func writeCSV(ds *dataset.Dataset, dst Source) error {
	if err := SaveSchema(dst.Path, ds.Schema()); err != nil {
		return err
	}
	return writeFile("csv", dst.Path, func(bw *bufio.Writer) error {
		w := csv.NewWriter(bw)
		cols := ds.Schema().Columns()
		if err := w.Write(cols); err != nil {
			return err
		}
		for _, row := range ds.Collect() {
			rec := make([]string, len(cols))
			for i, c := range cols {
				rec[i] = row.Get(c).String()
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	})
}
