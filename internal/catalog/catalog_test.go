package catalog

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
	"scrubjay/internal/value"
	"scrubjay/internal/wrappers"
)

// layoutRows are eight rows over two partitions in which each partition
// holds four distinct racks: alone, either half is too varied to code,
// while all eight rows repeat every rack once.
func layoutRows() []value.Row {
	var rows []value.Row
	for i := 0; i < 8; i++ {
		rows = append(rows, value.NewRow(
			"node", value.Str("n"+strconv.Itoa(i)),
			"rack", value.Str("r"+strconv.Itoa(i%4))))
	}
	return rows
}

var layoutSchema = semantics.NewSchema(
	"node", semantics.IDDomain("compute_node"),
	"rack", semantics.IDDomain("rack"),
)

// writeCatalog writes the layout table once in each wrapped format: csv,
// jsonl and bin files plus a kv-store table.
func writeCatalog(t *testing.T, rc *rdd.Context, dir string) {
	t.Helper()
	ds := dataset.FromRows(rc, "layout", layoutRows(), layoutSchema, 1)
	for _, dst := range []wrappers.Source{
		{Format: "csv", Path: filepath.Join(dir, "layout_csv.csv")},
		{Format: "jsonl", Path: filepath.Join(dir, "layout_jsonl.jsonl")},
		{Format: "bin", Path: filepath.Join(dir, "layout_bin.bin")},
		{Format: "kv", Path: dir, Table: "layout_kv"},
	} {
		if err := wrappers.Write(ds, dst); err != nil {
			t.Fatalf("writing %s: %v", dst.Format, err)
		}
	}
}

func TestLoadYieldsFrames(t *testing.T) {
	dir := t.TempDir()
	rc := rdd.NewContext(2)
	writeCatalog(t, rc, dir)
	cat, schemas, err := Load(rc, dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"layout_bin", "layout_csv", "layout_jsonl", "layout_kv"}
	if len(cat) != len(names) {
		t.Fatalf("loaded %d datasets, want %v", len(cat), names)
	}
	for _, name := range names {
		ds := cat[name]
		if ds == nil || !ds.IsColumnar() {
			t.Fatalf("%s: loaded %v, want a frame dataset", name, ds)
		}
		if !reflect.DeepEqual(schemas[name], layoutSchema) {
			t.Errorf("%s: schema %v, want %v", name, schemas[name], layoutSchema)
		}
		// bin returns the one partition it stored; the row formats pivot
		// onto the context's two, over one dictionary.
		frames, wantParts := ds.Frames().Collect(), 2
		if name == "layout_bin" {
			wantParts = 1
		}
		if len(frames) != wantParts {
			t.Fatalf("%s: %d partitions, want %d", name, len(frames), wantParts)
		}
		// Only a dictionary built over all eight rows codes the racks.
		for p, f := range frames {
			if name != "layout_bin" && (f.NumRows() != 4 || !f.Col("rack").DictEncoded()) {
				t.Errorf("%s: partition %d (%d rows): rack column not coded against the shared dictionary", name, p, f.NumRows())
			}
		}
		got := ds.SortedBy("node")
		if want := layoutRows(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows %v, want %v", name, got, want)
		}
	}
}

func TestIngestProfilesFrames(t *testing.T) {
	dir := t.TempDir()
	rc := rdd.NewContext(2)
	writeCatalog(t, rc, dir)
	cat, schemas, err := Load(rc, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.NewStore()
	Ingest(st, cat, schemas)
	for name, ds := range cat {
		one := stats.NewStore()
		one.IngestFrames(name, ds.Frames().Collect(), schemas[name])
		want, _ := one.Table(name)
		got, ok := st.Table(name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Ingest gave %+v, IngestFrames %+v", name, got, want)
		}
		if got.Rows != 8 || got.Columns["rack"].NDV != 4 || got.Columns["node"].NDV != 8 {
			t.Errorf("%s: table stats %+v", name, got)
		}
	}
	Ingest(nil, cat, schemas) // a nil store is a no-op
}

func TestLoadErrors(t *testing.T) {
	rc := rdd.NewContext(1)
	if _, _, err := Load(rc, t.TempDir()); err == nil || !strings.Contains(err.Error(), "no datasets") {
		t.Errorf("empty directory: err = %v", err)
	}
	dir := t.TempDir()
	writeCatalog(t, rc, dir)
	path := filepath.Join(dir, "layout_csv.csv")
	if err := wrappers.SaveSchema(path, semantics.NewSchema("node", semantics.IDDomain("compute_node"))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(rc, dir); err == nil || !strings.Contains(err.Error(), `column "rack" missing from schema sidecar`) {
		t.Errorf("csv column missing from its sidecar: err = %v", err)
	}
	if err := os.Remove(wrappers.SchemaSidecarPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(rc, dir); err == nil {
		t.Error("csv without a sidecar loaded")
	}
}
