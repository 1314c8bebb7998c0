package wrappers

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

func sampleDataset(ctx *rdd.Context) *dataset.Dataset {
	schema := semantics.NewSchema(
		"timestamp", semantics.TimeDomain(),
		"span", semantics.SpanDomain(),
		"node_id", semantics.IDDomain("compute_node"),
		"nodelist", semantics.IDListDomain("compute_node"),
		"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
		"count", semantics.ValueEntry("count", "count"),
	)
	rows := []value.Row{
		value.NewRow(
			"timestamp", value.TimeNanos(1490000000e9),
			"span", value.Span(1490000000e9, 1490003600e9),
			"node_id", value.Str("cab17"),
			"nodelist", value.StrList("cab17", "cab18"),
			"temp", value.Float(67.4),
			"count", value.Int(42),
		),
		value.NewRow(
			"timestamp", value.TimeNanos(1490000120e9),
			"node_id", value.Str("cab18"),
			"temp", value.Float(61.0),
		),
	}
	return dataset.FromRows(ctx, "sample", rows, schema, 2)
}

func datasetsEqual(t *testing.T, a, b *dataset.Dataset) {
	t.Helper()
	if !a.Schema().Equal(b.Schema()) {
		t.Fatalf("schemas differ:\n%v\n%v", a.Schema(), b.Schema())
	}
	ra := a.SortedBy("timestamp", "node_id")
	rb := b.SortedBy("timestamp", "node_id")
	if len(ra) != len(rb) {
		t.Fatalf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if !ra[i].Equal(rb[i]) {
			t.Fatalf("row %d differs:\n%v\n%v", i, ra[i], rb[i])
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ctx := rdd.NewContext(2)
	ds := sampleDataset(ctx)
	path := filepath.Join(t.TempDir(), "sample.csv")
	if err := Write(ds, Source{Format: "csv", Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(ctx, Source{Format: "csv", Path: path, Name: "sample"})
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
	if got.Name() != "sample" {
		t.Errorf("name = %q", got.Name())
	}
}

// TestCancelledUnwrapKeepsOldFiles: an unwrap computes its dataset while it
// writes, so a cancelled request aborts it mid-write. The CSV it would
// replace and that CSV's schema sidecar both keep their old bytes, and no
// temp file is left.
func TestCancelledUnwrapKeepsOldFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := Write(sampleDataset(rdd.NewContext(2)), Source{Format: "csv", Path: path}); err != nil {
		t.Fatal(err)
	}
	oldData, _ := os.ReadFile(path)
	oldSchema, _ := os.ReadFile(SchemaSidecarPath(path))

	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := semantics.NewSchema("x", semantics.ValueEntry("count", "count"))
	ds := dataset.FromRows(rdd.NewContext(1).WithGoContext(gctx), "x",
		[]value.Row{value.NewRow("x", value.Int(1))}, s, 1)
	perr, err := rdd.Guard(func() error { return Write(ds, Source{Format: "csv", Path: path}) })
	if err == nil {
		err = perr
	}
	var canceled *rdd.Canceled
	if !errors.As(err, &canceled) {
		t.Fatalf("unwrap under a cancelled context returned %v, want a *rdd.Canceled", err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(oldData) {
		t.Errorf("cancelled unwrap left %q, want the old %q", got, oldData)
	}
	if got, _ := os.ReadFile(SchemaSidecarPath(path)); string(got) != string(oldSchema) {
		t.Errorf("cancelled unwrap rewrote the schema sidecar:\n%s", got)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("cancelled unwrap left %v", tmps)
	}
}

func TestCSVUnixSecondsDatetime(t *testing.T) {
	ctx := rdd.NewContext(1)
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	schema := semantics.NewSchema("t", semantics.TimeDomain())
	if err := SaveSchema(path, schema); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("t\n1490000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Read(ctx, Source{Format: "csv", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rows := ds.Collect()
	if len(rows) != 1 || rows[0].Get("t").TimeNanosVal() != 1490000000e9 {
		t.Errorf("rows = %v", rows)
	}
}

func TestCSVErrors(t *testing.T) {
	ctx := rdd.NewContext(1)
	dir := t.TempDir()

	// Missing sidecar.
	if _, err := Read(ctx, Source{Format: "csv", Path: filepath.Join(dir, "none.csv")}); err == nil {
		t.Error("missing sidecar should fail")
	}

	// Column not in schema.
	p1 := filepath.Join(dir, "extra.csv")
	SaveSchema(p1, semantics.NewSchema("a", semantics.ValueEntry("count", "count")))
	os.WriteFile(p1, []byte("a,b\n1,2\n"), 0o644)
	if _, err := Read(ctx, Source{Format: "csv", Path: p1}); err == nil {
		t.Error("unknown column should fail")
	}

	// Bad datetime cell.
	p2 := filepath.Join(dir, "badtime.csv")
	SaveSchema(p2, semantics.NewSchema("t", semantics.TimeDomain()))
	os.WriteFile(p2, []byte("t\nnot-a-time\n"), 0o644)
	if _, err := Read(ctx, Source{Format: "csv", Path: p2}); err == nil {
		t.Error("bad datetime should fail")
	}

	// Bad timespan cell.
	p3 := filepath.Join(dir, "badspan.csv")
	SaveSchema(p3, semantics.NewSchema("s", semantics.SpanDomain()))
	os.WriteFile(p3, []byte("s\nnot-a-span\n"), 0o644)
	if _, err := Read(ctx, Source{Format: "csv", Path: p3}); err == nil {
		t.Error("bad span should fail")
	}

	// Bad list cell.
	p4 := filepath.Join(dir, "badlist.csv")
	SaveSchema(p4, semantics.NewSchema("l", semantics.IDListDomain("compute_node")))
	os.WriteFile(p4, []byte("l\nplain\n"), 0o644)
	if _, err := Read(ctx, Source{Format: "csv", Path: p4}); err == nil {
		t.Error("bad list should fail")
	}
}

func TestCSVEmptyFile(t *testing.T) {
	ctx := rdd.NewContext(1)
	path := filepath.Join(t.TempDir(), "empty.csv")
	SaveSchema(path, semantics.NewSchema("a", semantics.ValueEntry("count", "count")))
	os.WriteFile(path, []byte(""), 0o644)
	ds, err := Read(ctx, Source{Format: "csv", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Count() != 0 {
		t.Errorf("count = %d", ds.Count())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	ctx := rdd.NewContext(2)
	ds := sampleDataset(ctx)
	path := filepath.Join(t.TempDir(), "sample.jsonl")
	if err := Write(ds, Source{Format: "jsonl", Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(ctx, Source{Format: "jsonl", Path: path, Name: "sample"})
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestJSONLBadLine(t *testing.T) {
	ctx := rdd.NewContext(1)
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	SaveSchema(path, semantics.NewSchema("a", semantics.ValueEntry("count", "count")))
	os.WriteFile(path, []byte("{not json\n"), 0o644)
	if _, err := Read(ctx, Source{Format: "jsonl", Path: path}); err == nil {
		t.Error("bad JSONL line should fail")
	}
}

func TestKVRoundTrip(t *testing.T) {
	ctx := rdd.NewContext(2)
	ds := sampleDataset(ctx)
	dir := t.TempDir()
	if err := Write(ds, Source{Format: "kv", Path: dir, Table: "samples"}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(ctx, Source{Format: "kv", Path: dir, Table: "samples", Name: "sample"})
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
	if got.Name() != "sample" {
		t.Errorf("name = %q", got.Name())
	}
}

func TestKVMissingSchema(t *testing.T) {
	ctx := rdd.NewContext(1)
	if _, err := Read(ctx, Source{Format: "kv", Path: t.TempDir(), Table: "empty"}); err == nil {
		t.Error("kv table without schema should fail")
	}
}

func TestDefaultDatasetNames(t *testing.T) {
	if datasetName(Source{Path: "/x/y.csv"}) != "/x/y.csv" {
		t.Error("path name default")
	}
	if datasetName(Source{Path: "/s", Table: "t"}) != "t" {
		t.Error("table name default")
	}
	if datasetName(Source{Path: "/s", Table: "t", Name: "n"}) != "n" {
		t.Error("explicit name")
	}
}

func TestUnknownFormat(t *testing.T) {
	ctx := rdd.NewContext(1)
	if _, err := Read(ctx, Source{Format: "parquet"}); err == nil {
		t.Error("unknown read format should fail")
	}
	if err := Write(sampleDataset(ctx), Source{Format: "parquet"}); err == nil {
		t.Error("unknown write format should fail")
	}
}

func TestRegisterCustomFormat(t *testing.T) {
	called := false
	RegisterFormat("test-custom", func(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
		called = true
		return dataset.FromRows(ctx, "custom", nil, semantics.Schema{}, 1), nil
	}, nil)
	ctx := rdd.NewContext(1)
	if _, err := Read(ctx, Source{Format: "test-custom"}); err != nil || !called {
		t.Errorf("custom wrapper: err=%v called=%v", err, called)
	}
	found := false
	for _, f := range Formats() {
		if f == "test-custom" {
			found = true
		}
	}
	if !found {
		t.Errorf("Formats() = %v missing test-custom", Formats())
	}
}

func TestFormatsListsBuiltins(t *testing.T) {
	fs := strings.Join(Formats(), ",")
	for _, want := range []string{"csv", "jsonl", "kv"} {
		if !strings.Contains(fs, want) {
			t.Errorf("Formats() = %s missing %s", fs, want)
		}
	}
}

func TestSchemaSidecarErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.csv")
	if _, err := LoadSchema(path); err == nil {
		t.Error("missing sidecar should fail")
	}
	os.WriteFile(SchemaSidecarPath(path), []byte("{bad"), 0o644)
	if _, err := LoadSchema(path); err == nil {
		t.Error("corrupt sidecar should fail")
	}
}

// binDataset is a three-partition frame dataset that exercises every part
// of the bin format: a dictionary-coded string column (rack), a plain one
// (node_id), a boxed list column (nodelist) and absent cells (temp).
func binDataset(ctx *rdd.Context) *dataset.Dataset {
	schema := semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"rack", semantics.IDDomain("rack"),
		"nodelist", semantics.IDListDomain("compute_node"),
		"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
	)
	rows := make([]value.Row, 30)
	for i := range rows {
		node := fmt.Sprintf("cab%02d", i)
		rows[i] = value.NewRow("node_id", value.Str(node), "rack", value.Str(fmt.Sprintf("r%d", i%2)),
			"nodelist", value.StrList(node, "cab99"))
		if i%3 != 0 {
			rows[i]["temp"] = value.Float(60 + float64(i)/4)
		}
	}
	return dataset.FromRowsColumnar(ctx, "nodes", rows, schema, 3)
}

// frameJSON renders each frame's rows as AppendRowJSON does, one line each.
func frameJSON(frames []*frame.Frame) []string {
	out := make([]string, len(frames))
	for i, f := range frames {
		keys := f.EncodedKeys()
		var b []byte
		for r := 0; r < f.NumRows(); r++ {
			b = append(f.AppendRowJSON(b, r, keys), '\n')
		}
		out[i] = string(b)
	}
	return out
}

// TestBinRoundTrip: a bin file holds the partitions and cells written —
// the frame count and every row's JSON bytes — for row- and frame-form
// datasets alike.
func TestBinRoundTrip(t *testing.T) {
	ctx := rdd.NewContext(2)
	dir := t.TempDir()
	ds := sampleDataset(ctx)
	path := filepath.Join(dir, "sample.bin")
	if err := Write(ds, Source{Format: "bin", Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(ctx, Source{Format: "bin", Path: path, Name: "sample"})
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)

	ds = binDataset(ctx)
	want := ds.Frames().Collect()
	if !want[0].Col("rack").DictEncoded() || want[0].Col("node_id").DictEncoded() ||
		want[0].Col("nodelist").Kind() != value.KindNull || want[0].Col("temp").AllPresent() {
		t.Fatal("binDataset no longer has a coded, a plain, a boxed and a sparse column")
	}
	path = filepath.Join(dir, "nodes.bin")
	if err := Write(ds, Source{Format: "bin", Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err = Read(ctx, Source{Format: "bin", Path: path, Partitions: len(want)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(ds.Schema()) {
		t.Errorf("schema %v, want %v", got.Schema(), ds.Schema())
	}
	if n := got.Frames().NumPartitions(); n != len(want) {
		t.Errorf("%d partitions, want %d", n, len(want))
	}
	if g, w := frameJSON(got.Frames().Collect()), frameJSON(want); !reflect.DeepEqual(g, w) {
		t.Errorf("rows differ:\n%q\nwant\n%q", g, w)
	}
	if _, err := Read(ctx, Source{Format: "bin", Path: path, Partitions: len(want) + 1}); err == nil {
		t.Error("a partition count other than the stored one should fail")
	}
}

func TestBinBadInputs(t *testing.T) {
	ctx := rdd.NewContext(1)
	dir := t.TempDir()
	read := func(b []byte) error {
		p := filepath.Join(dir, "x.bin")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(ctx, Source{Format: "bin", Path: p})
		return err
	}
	if _, err := Read(ctx, Source{Format: "bin", Path: filepath.Join(dir, "none.bin")}); err == nil {
		t.Error("missing file should fail")
	}
	if err := read([]byte("NOTMAGIC")); err == nil {
		t.Error("bad magic should fail")
	}
	if err := read([]byte("SJBIN1\n\x02{}\x00")); err == nil || !strings.Contains(err.Error(), "SJBIN1") {
		t.Errorf("an SJBIN1 file should fail naming the retired format, got %v", err)
	}
	path := filepath.Join(dir, "nodes.bin")
	if err := Write(binDataset(ctx), Source{Format: "bin", Path: path}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := read(whole); err != nil {
		t.Fatal(err)
	}
	for n := range whole {
		if err := read(whole[:n]); err == nil {
			t.Fatalf("the file's first %d of %d bytes read without error", n, len(whole))
		}
	}
	if err := read(append(whole, 0)); err == nil {
		t.Error("a trailing byte should fail")
	}
}

// TestKVOverwriteReplacesTable: unwrapping to an existing kv table replaces
// it, so a shorter dataset does not read back the old table's extra rows.
func TestKVOverwriteReplacesTable(t *testing.T) {
	ctx := rdd.NewContext(1)
	dir := t.TempDir()
	src := Source{Format: "kv", Path: dir, Table: "nodes", Name: "sample"}
	if err := Write(binDataset(ctx), src); err != nil {
		t.Fatal(err)
	}
	ds := sampleDataset(ctx)
	if err := Write(ds, src); err != nil {
		t.Fatal(err)
	}
	got, err := Read(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

type closeErr struct{ err error }

func (c closeErr) Close() error { return c.err }

// TestCloseKeep pins how writers report a failed close: the close error
// surfaces when the write succeeded, and never hides an earlier error.
func TestCloseKeep(t *testing.T) {
	first, closing := errors.New("write failed"), errors.New("close failed")
	for _, c := range []struct{ err, close, want error }{
		{nil, nil, nil},
		{nil, closing, closing},
		{first, closing, first},
		{first, nil, first},
	} {
		err := c.err
		closeKeep(closeErr{c.close}, &err)
		if err != c.want {
			t.Errorf("write error %v, close error %v: got %v, want %v", c.err, c.close, err, c.want)
		}
	}
}
