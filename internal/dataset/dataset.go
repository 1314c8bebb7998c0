// Package dataset binds the data-parallel substrate to ScrubJay's semantic
// layer. A Dataset is the paper's ScrubJayRDD (§4.1): a distributed
// collection of sparse, heterogeneous named-tuple rows together with the
// Schema describing what each column means. All derivations operate on
// Datasets; the derivation engine operates on their Schemas alone.
package dataset

import (
	"fmt"
	"sort"
	"strings"

	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/units"
	"scrubjay/internal/value"
)

// Dataset is a semantically annotated, partitioned collection of rows. It
// carries one of two physical representations — row-at-a-time partitions
// ([]value.Row) or columnar batches (one *frame.Frame per partition) — and
// derives the other lazily on demand. Derivations preserve the input
// representation (columnar in, columnar out); pipeline.Execute hands them
// columnar inputs only, so an executed plan stays columnar end-to-end. The
// row-form operators remain as the reference the derivation property
// suites compare the columnar kernels against, row for row.
type Dataset struct {
	name   string
	rows   *rdd.RDD[value.Row]    // nil when born columnar
	frames *rdd.RDD[*frame.Frame] // nil when born row-form
	schema semantics.Schema
}

// New wraps an RDD of rows with its schema.
func New(name string, rows *rdd.RDD[value.Row], schema semantics.Schema) *Dataset {
	return &Dataset{name: name, rows: rows, schema: schema}
}

// NewFrames wraps an RDD of columnar batches (one frame per partition
// element) with its schema.
func NewFrames(name string, frames *rdd.RDD[*frame.Frame], schema semantics.Schema) *Dataset {
	return &Dataset{name: name, frames: frames, schema: schema}
}

// FromRows distributes a row slice over numParts partitions.
func FromRows(ctx *rdd.Context, name string, rows []value.Row, schema semantics.Schema, numParts int) *Dataset {
	return New(name, rdd.Parallelize(ctx, rows, numParts).WithName(name), schema)
}

// FromFrames wraps pre-built columnar batches, one partition per frame.
// The frames must be treated as immutable from then on; this is how the
// server shares one set of catalog frames across concurrent requests.
func FromFrames(ctx *rdd.Context, name string, frames []*frame.Frame, schema semantics.Schema) *Dataset {
	parts := make([][]*frame.Frame, len(frames))
	for i, f := range frames {
		parts[i] = []*frame.Frame{f}
	}
	return NewFrames(name, rdd.FromPartitions(ctx, parts).WithName(name), schema)
}

// FromRowsColumnar distributes a row slice over numParts partitions and
// converts each partition into one columnar batch.
func FromRowsColumnar(ctx *rdd.Context, name string, rows []value.Row, schema semantics.Schema, numParts int) *Dataset {
	src := rdd.Parallelize(ctx, rows, numParts)
	frames := rdd.MapPartitions(src, func(_ int, in []value.Row) []*frame.Frame {
		return []*frame.Frame{frame.FromRows(in)}
	})
	return NewFrames(name, frames.WithName(name), schema)
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// WithName returns the dataset relabeled (data and schema shared).
func (d *Dataset) WithName(name string) *Dataset {
	return &Dataset{name: name, rows: d.rows, frames: d.frames, schema: d.schema}
}

// IsColumnar reports whether the dataset's native representation is
// columnar batches.
func (d *Dataset) IsColumnar() bool { return d.frames != nil }

// Rows returns the dataset as an RDD of boundary-format rows. For a
// columnar dataset the rows are unboxed from the batches lazily, partition
// by partition, preserving order.
func (d *Dataset) Rows() *rdd.RDD[value.Row] {
	if d.rows != nil {
		return d.rows
	}
	out := rdd.FlatMap(d.frames, func(f *frame.Frame) []value.Row { return f.ToRows() })
	return out.WithName(d.name + "|unbox")
}

// Frames returns the dataset as an RDD of columnar batches (one per input
// partition). For a row-form dataset each partition is packed into one
// frame lazily.
func (d *Dataset) Frames() *rdd.RDD[*frame.Frame] {
	if d.frames != nil {
		return d.frames
	}
	out := rdd.MapPartitions(d.rows, func(_ int, in []value.Row) []*frame.Frame {
		return []*frame.Frame{frame.FromRows(in)}
	})
	return out.WithName(d.name + "|box")
}

// Columnar returns the dataset in columnar representation (itself if it
// already is). pipeline.Execute passes every dataset it resolves through
// here, so plans always run on the columnar kernels. A row-form dataset
// keeps its row RDD alongside the lazy frame view, so row-level consumers
// (Count, Collect, the cache writer) never pay the row→column pivot just
// because execution marked the dataset columnar.
func (d *Dataset) Columnar() *Dataset {
	if d.frames != nil {
		return d
	}
	return &Dataset{name: d.name, rows: d.rows, frames: d.Frames(), schema: d.schema}
}

// Schema returns the dataset's schema. Callers must not mutate it.
func (d *Dataset) Schema() semantics.Schema { return d.schema }

// Context returns the execution context.
func (d *Dataset) Context() *rdd.Context {
	if d.rows != nil {
		return d.rows.Context()
	}
	return d.frames.Context()
}

// Collect materializes all rows.
func (d *Dataset) Collect() []value.Row { return d.Rows().Collect() }

// Count returns the number of rows. A dataset that carries rows counts
// them directly; a purely columnar one counts batch lengths without
// unboxing rows.
func (d *Dataset) Count() int64 {
	if d.rows != nil {
		return d.rows.Count()
	}
	n, _ := rdd.Reduce(rdd.Map(d.frames, func(f *frame.Frame) int64 {
		return int64(f.NumRows())
	}), func(a, b int64) int64 { return a + b })
	return n
}

// Cache marks the underlying RDD for in-memory reuse.
func (d *Dataset) Cache() *Dataset {
	if d.frames != nil {
		d.frames.Cache()
	} else {
		d.rows.Cache()
	}
	return d
}

// Select projects the dataset onto the named columns; the schema shrinks
// accordingly. Unknown columns are an error.
func (d *Dataset) Select(cols ...string) (*Dataset, error) {
	ns := make(semantics.Schema, len(cols))
	for _, c := range cols {
		e, ok := d.schema[c]
		if !ok {
			return nil, fmt.Errorf("dataset %q: no column %q", d.name, c)
		}
		ns[c] = e
	}
	cols = append([]string(nil), cols...)
	name := d.name + "|select"
	if d.frames != nil {
		out := rdd.Map(d.frames, func(f *frame.Frame) *frame.Frame { return f.Select(cols) })
		return NewFrames(name, out.WithName(name), ns), nil
	}
	out := rdd.Map(d.rows, func(r value.Row) value.Row { return r.Project(cols...) })
	return New(name, out.WithName(name), ns), nil
}

// SortedBy returns rows totally ordered by the given columns (materializes).
func (d *Dataset) SortedBy(cols ...string) []value.Row {
	rows := d.Collect()
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range cols {
			cmp := rows[i].Get(c).Compare(rows[j].Get(c))
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return rows
}

// KindForUnits returns the value.Kind a column with the given units is
// expected to hold, and whether there is such an expectation.
func KindForUnits(u string) (value.Kind, bool) {
	if u == "datetime" {
		return value.KindTime, true
	}
	if u == "timespan" {
		return value.KindSpan, true
	}
	if _, ok := units.IsList(u); ok {
		return value.KindList, true
	}
	return value.KindNull, false
}

// Validate checks the schema against the dictionary and every row against
// the schema: rows may not carry columns absent from the schema, and
// structurally typed units (datetime, timespan, lists) must hold the
// matching value kind. It materializes the dataset.
func (d *Dataset) Validate(dict *semantics.Dictionary) error {
	if err := d.schema.Validate(dict); err != nil {
		return fmt.Errorf("dataset %q: %w", d.name, err)
	}
	type rowErr struct{ msg string }
	bad := rdd.FlatMap(d.Rows(), func(r value.Row) []rowErr {
		for col, v := range r {
			e, ok := d.schema[col]
			if !ok {
				return []rowErr{{fmt.Sprintf("row has column %q absent from schema", col)}}
			}
			if v.IsNull() {
				continue
			}
			if want, constrained := KindForUnits(e.Units); constrained && v.Kind() != want {
				return []rowErr{{fmt.Sprintf("column %q: units %q require kind %s, got %s",
					col, e.Units, want, v.Kind())}}
			}
		}
		return nil
	})
	errs := bad.Take(1)
	if len(errs) > 0 {
		return fmt.Errorf("dataset %q: %s", d.name, errs[0].msg)
	}
	return nil
}

// Show renders up to n rows as an aligned table for terminal output.
func (d *Dataset) Show(n int) string {
	rows := d.Rows().Take(n)
	cols := d.schema.Columns()
	width := make([]int, len(cols))
	for i, c := range cols {
		width[i] = len(c)
	}
	cells := make([][]string, len(rows))
	for ri, r := range rows {
		cells[ri] = make([]string, len(cols))
		for ci, c := range cols {
			s := r.Get(c).String()
			cells[ri][ci] = s
			if len(s) > width[ci] {
				width[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dataset %q (%d shown)\n", d.name, len(rows))
	for i, c := range cols {
		fmt.Fprintf(&b, "%-*s  ", width[i], c)
	}
	b.WriteByte('\n')
	for ri := range cells {
		for ci := range cols {
			fmt.Fprintf(&b, "%-*s  ", width[ci], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
