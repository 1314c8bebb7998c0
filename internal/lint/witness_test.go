package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// witness is one realistic regression of shipped code: replacing old with
// new in file (module-relative) reintroduces the bug analyzer exists to
// catch. old must occur exactly once in the file.
type witness struct {
	analyzer, file, old, new string
}

// realTreeWitnesses is the admission rule for the suite: every registered
// analyzer needs at least one row here, and every row must make its
// analyzer fire in the row's file. An analyzer that only ever fires on
// fixtures does not stay.
var realTreeWitnesses = []witness{
	{
		// The request-bound rdd context stops honouring the query's
		// cancellation.
		analyzer: "ctxflow",
		file:     "internal/server/server.go",
		old:      "rdd.NewContext(s.cfg.Workers).WithGoContext(ctx)",
		new:      "rdd.NewContext(s.cfg.Workers).WithGoContext(context.Background())",
	},
	{
		// Schema.Columns leaks map iteration order into every plan.
		analyzer: "determinism",
		file:     "internal/semantics/schema.go",
		old:      "\t\tcols = append(cols, c)\n\t}\n\tsort.Strings(cols)\n",
		new:      "\t\tcols = append(cols, c)\n\t}\n",
	},
	{
		// fetchFrom drops the pooled-conn error and fetches anyway.
		analyzer: "errflow",
		file:     "internal/cluster/scheduler.go",
		old:      "\tc, err := w.get(ctx)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\tpayload, err := c.FetchTraced(",
		new:      "\tc, err := w.get(ctx)\n\tpayload, err := c.FetchTraced(",
	},
	{
		// A worker that cannot publish its address leaves its listener
		// bound.
		analyzer: "leakcheck",
		file:     "internal/cluster/connect.go",
		old:      "\t\t\tsrv.Close()\n\t\t\treturn err\n",
		new:      "\t\t\treturn err\n",
	},
	{
		// Frame.With replaces the column in the shared receiver.
		analyzer: "frameimmut",
		file:     "internal/frame/frame.go",
		old:      "\t\t\tcols = append(cols, col)\n\t\t\treplaced = true\n",
		new:      "\t\t\tf.cols[i] = col\n\t\t\tcols = append(cols, col)\n\t\t\treplaced = true\n",
	},
	{
		// lerpColumn writes back through a payload bound to a local.
		analyzer: "frameimmut",
		file:     "internal/derive/interp_join_columnar.go",
		old:      "\t\t\tout[k] = fs[b]\n",
		new:      "\t\t\tfs[b] = out[k]\n",
	},
	{
		// The heartbeat ticker is never stopped.
		analyzer: "leakcheck",
		file:     "internal/cluster/registry.go",
		old:      "\t\tdefer t.Stop()\n",
		new:      "",
	},
	{
		// Store.Register pivots rows to frames while holding the store lock.
		analyzer: "lockdiscipline",
		file:     "internal/server/store.go",
		old:      "\tframes := dataset.FromRowsColumnar(rc, name, rows, schema, parts).Frames().Collect()\n\ts.mu.Lock()\n",
		new:      "\ts.mu.Lock()\n\tframes := dataset.FromRowsColumnar(rc, name, rows, schema, parts).Frames().Collect()\n",
	},
	{
		// The filter mask is shared by every partition's closure call.
		analyzer: "purity",
		file:     "internal/derive/relational_columnar.go",
		old:      "\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\tkeep := filterMask(",
		new:      "\tvar keep []bool\n\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\tkeep = filterMask(",
	},
}

// witnessSkipDirs are the directories left out of the mutated copy: fixture
// modules, the nested benchmark module, and example programs.
var witnessSkipDirs = map[string]bool{"testdata": true, "benchmark": true, "examples": true}

// TestRealTreeWitnesses copies the module's non-test sources, applies every
// witness row, analyzes the copy once with the full suite, and requires each
// row's analyzer to report in that row's file — and no finding from an
// analyzer without a row.
func TestRealTreeWitnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a mutated copy of the whole module")
	}
	// A row is added with a new analyzer or a newly caught bug class, and
	// rewritten when a refactor moves its code; dropping one (even a second
	// row for an analyzer) must be a deliberate edit of this count.
	if n := len(realTreeWitnesses); n != 9 {
		t.Fatalf("%d witness rows, want 9", n)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := copyModuleSources(root, dst); err != nil {
		t.Fatal(err)
	}
	for _, w := range realTreeWitnesses {
		path := filepath.Join(dst, filepath.FromSlash(w.file))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s witness: %v", w.analyzer, err)
			continue
		}
		if n := strings.Count(string(src), w.old); n != 1 {
			t.Errorf("%s witness in %s: old text occurs %d times, want exactly 1 — update the witness to the current code:\n%s",
				w.analyzer, w.file, n, w.old)
			continue
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), w.old, w.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	m, err := LoadModule(dst, LoadOptions{})
	if err != nil {
		t.Fatalf("mutated copy does not load: %v", err)
	}
	findings := Run(m, Analyzers())

	hasRow := map[string]bool{}
	for _, w := range realTreeWitnesses {
		hasRow[w.analyzer] = true
	}
	for _, a := range Analyzers() {
		if !hasRow[a.Name] {
			t.Errorf("analyzer %q has no real-tree witness row", a.Name)
		}
	}
	type hit struct{ analyzer, file string }
	fired := map[hit]bool{}
	for _, f := range findings {
		rel, err := filepath.Rel(dst, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fired[hit{f.Analyzer, filepath.ToSlash(rel)}] = true
		if !hasRow[f.Analyzer] {
			t.Errorf("finding from an analyzer without a witness row: %s", formatFindings(m, []Finding{f}))
		}
	}
	for _, w := range realTreeWitnesses {
		if !fired[hit{w.analyzer, w.file}] {
			t.Errorf("%s witness: no %s finding in %s after the mutation", w.analyzer, w.analyzer, w.file)
		}
	}
}

// copyModuleSources copies go.mod and every non-test Go file under root
// into dst, keeping the layout and skipping witnessSkipDirs and dot
// directories.
func copyModuleSources(root, dst string) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (witnessSkipDirs[d.Name()] || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
}
