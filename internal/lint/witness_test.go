package lint

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutation is one realistic regression of shipped code: replacing old with
// new in file (module-relative) reintroduces a bug, and the row names the
// checker that must catch it. old must occur exactly once in the file.
//
// An analyzer row names the analyzer that must fire in file. A test row
// names the test (test, in package pkg) that must fail under -race with
// the mutation overlaid on the real tree.
type mutation struct {
	analyzer  string
	test, pkg string
	file      string
	old, new  string
}

// mutations is the admission table for every checker. An analyzer stays
// while it has at least one row in product-reachable code that no test
// catches on 5 of 5 runs (DESIGN.md §5); every other row names the test
// that does catch it. The comment on each row says what the mutation
// breaks and, for an analyzer row, what the tests do with it.
var mutations = []mutation{
	{
		// The request-bound rdd context stops honouring the query's
		// cancellation. No test fails.
		analyzer: "ctxflow",
		file:     "internal/server/server.go",
		old:      "rdd.NewContext(s.cfg.Workers).WithGoContext(ctx)",
		new:      "rdd.NewContext(s.cfg.Workers).WithGoContext(context.Background())",
	},
	{
		// A plan-only request waits for admission past its client's
		// disconnect. No test fails.
		analyzer: "ctxflow",
		file:     "internal/server/server.go",
		old:      "\t\t\tif err := s.adm.acquire(ctx); err != nil {\n\t\t\t\ts.rejectAdmission(w, err)",
		new:      "\t\t\tif err := s.adm.acquire(context.Background()); err != nil {\n\t\t\t\ts.rejectAdmission(w, err)",
	},
	{
		// Solve visits the catalog in map order. Tests fail on 5 of 5 runs
		// (TestSolveDeterministicProperty among others), so this row does
		// not count toward retention; the pipeline.go row does.
		analyzer: "determinism",
		file:     "internal/engine/engine.go",
		old:      "\tfor n := range e.schemas {\n\t\tnames = append(names, n)\n\t}\n\tsort.Strings(names)\n",
		new:      "\tfor n := range e.schemas {\n\t\tnames = append(names, n)\n\t}\n",
	},
	{
		// A plan node's cache key lists its parameters in map order. Tests
		// fail on 3 or 4 of 5 runs.
		analyzer: "determinism",
		file:     "internal/pipeline/pipeline.go",
		old:      "\t\tfor k := range n.Params {\n\t\t\tkeys = append(keys, k)\n\t\t}\n\t\tsort.Strings(keys)\n\t\tfor _, k := range keys {\n\t\t\tfmt.Fprintf(b,",
		new:      "\t\tfor k := range n.Params {\n\t\t\tkeys = append(keys, k)\n\t\t}\n\t\tfor _, k := range keys {\n\t\t\tfmt.Fprintf(b,",
	},
	{
		// OpenEnv serves with a nil stats store when the file is corrupt.
		// No test fails.
		analyzer: "errflow",
		file:     "internal/server/daemon.go",
		old:      "\t\tif e.Stats, err = stats.LoadFile(o.StatsPath); err != nil {\n\t\t\treturn nil, err\n\t\t}\n",
		new:      "\t\te.Stats, err = stats.LoadFile(o.StatsPath)\n",
	},
	{
		// OpenEnv serves with a nil result cache when its directory cannot
		// be opened. No test fails.
		analyzer: "errflow",
		file:     "internal/server/daemon.go",
		old:      "\t\tif e.Cache, err = cache.Open(o.CacheDir, CacheBytes); err != nil {\n\t\t\treturn nil, err\n\t\t}\n",
		new:      "\t\te.Cache, err = cache.Open(o.CacheDir, CacheBytes)\n",
	},
	{
		// Frame.With replaces the column in the shared receiver.
		analyzer: "frameimmut",
		file:     "internal/frame/frame.go",
		old:      "\t\t\tcols = append(cols, col)\n\t\t\treplaced = true\n",
		new:      "\t\t\tf.cols[i] = col\n\t\t\tcols = append(cols, col)\n\t\t\treplaced = true\n",
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
		// StopHeartbeat waits for the heartbeat goroutine under the lock
		// that goroutine's probe takes. No test fails on an idle host,
		// -race included; under load TestConcurrentStress sometimes hangs
		// until the test timeout.
		analyzer: "lockdiscipline",
		file:     "internal/cluster/registry.go",
		old:      "\tr.mu.Lock()\n\tstop, done := r.hbStop, r.hbDone\n\tr.hbStop, r.hbDone = nil, nil\n\tr.mu.Unlock()\n",
		new:      "\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tstop, done := r.hbStop, r.hbDone\n\tr.hbStop, r.hbDone = nil, nil\n",
	},
	{
		// Schema.Columns leaks map iteration order into every plan.
		test: "TestSchemaAccessors", pkg: "internal/semantics",
		file: "internal/semantics/schema.go",
		old:  "\t\tcols = append(cols, c)\n\t}\n\tsort.Strings(cols)\n",
		new:  "\t\tcols = append(cols, c)\n\t}\n",
	},
	{
		// fetchFrom drops the pooled-conn error and fetches anyway.
		test: "TestWorkerDeathBetweenPhases", pkg: "internal/cluster",
		file: "internal/cluster/scheduler.go",
		old:  "\tc, err := w.get(ctx)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\tpayload, err := c.FetchTraced(",
		new:  "\tc, err := w.get(ctx)\n\tpayload, err := c.FetchTraced(",
	},
	{
		// A fetch returns its chunks in map order, not (src, seq) order.
		// (A no-op stands in for the sort so the slices import still
		// builds.)
		test: "TestExchangeMergeOrder", pkg: "internal/cluster",
		file: "internal/shuffle/server.go",
		old:  "\tslices.Sort(keys)\n",
		new:  "\tkeys = slices.Clip(keys)\n",
	},
	{
		// A re-put after a retry keeps the first write.
		test: "FuzzPipelinedPuts", pkg: "internal/shuffle",
		file: "internal/shuffle/server.go",
		old:  "\tif old, dup := chunks[key]; dup {\n\t\ts.bytes -= int64(len(old))\n\t}\n\tchunks[key] = chunk\n\ts.bytes += int64(len(chunk))\n",
		new:  "\tif _, dup := chunks[key]; !dup {\n\t\tchunks[key] = chunk\n\t\ts.bytes += int64(len(chunk))\n\t}\n",
	},
	{
		// lerpColumn writes back through a payload bound to a local.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/interp_join_columnar.go",
		old:  "\t\t\tout[k] = fs[b]\n",
		new:  "\t\t\tfs[b] = out[k]\n",
	},
	{
		// The interpolation join drops a right row exactly one window away.
		test: "TestInterpJoinEdgeCases", pkg: "internal/derive",
		file: "internal/derive/interp_join_columnar.go",
		old:  "if q < len(ts) && ts[q]-lt <= s.w {",
		new:  "if q < len(ts) && ts[q]-lt < s.w {",
	},
	{
		// The filter mask is shared by every partition's closure call.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/relational_columnar.go",
		old:  "\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\tkeep := filterMask(",
		new:  "\tvar keep []bool\n\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\tkeep = filterMask(",
	},
	{
		// A float column kernel's cell vector is shared by every partition.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/map_columnar.go",
		old:  "\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\tat := cells(f)\n\t\tvals := make(",
		new:  "\tvar vals []float64\n\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\tat := cells(f)\n\t\tvals = make(",
	},
	{
		// The natural join's left hash vector is shared by every partition.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/natural_join_columnar.go",
		old:  "\tframes := rdd.ZipPartitions(lex, rex, func(_ int, ls, rs []keyedFrame) []*frame.Frame {\n\t\tlf, lh := concatKeyed(ls)\n",
		new:  "\tvar lh []uint64\n\tframes := rdd.ZipPartitions(lex, rex, func(_ int, ls, rs []keyedFrame) []*frame.Frame {\n\t\tvar lf *frame.Frame\n\t\tlf, lh = concatKeyed(ls)\n",
	},
	{
		// explode_discrete's kernel result passes through one variable
		// shared by every partition.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/explode.go",
		old:  "\t\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\t\treturn explodeDiscreteFrame(f, col, out)\n",
		new:  "\t\tvar last *frame.Frame\n\t\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\t\tlast = explodeDiscreteFrame(f, col, out)\n\t\t\treturn last\n",
	},
	{
		// The same for explode_continuous.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/explode.go",
		old:  "\t\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\t\treturn explodeContinuousFrame(f, col, out, periodNanos)\n",
		new:  "\t\tvar last *frame.Frame\n\t\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\t\tlast = explodeContinuousFrame(f, col, out, periodNanos)\n\t\t\treturn last\n",
	},
	{
		// The same for convert.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/convert.go",
		old:  "\t\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\t\treturn convertFrame(f, u, col, from, to)\n",
		new:  "\t\tvar last *frame.Frame\n\t\tframes := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {\n\t\t\tlast = convertFrame(f, u, col, from, to)\n\t\t\treturn last\n",
	},
	{
		// The group kernel's hash vector is shared by every partition.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/group_columnar.go",
		old:  "\tframes := rdd.MapPartitions(ex, func(_ int, kfs []keyedFrame) []*frame.Frame {\n\t\tf, h := concatKeyed(kfs)\n",
		new:  "\tvar h []uint64\n\tframes := rdd.MapPartitions(ex, func(_ int, kfs []keyedFrame) []*frame.Frame {\n\t\tvar f *frame.Frame\n\t\tf, h = concatKeyed(kfs)\n",
	},
	{
		// Join keys of different kinds with the same text collide.
		test: "TestColumnarMatchesRowPath", pkg: "internal/derive",
		file: "internal/derive/natural_join.go",
		old:  "\tb = append(b, byte(v.Kind()))\n\tb = append(b, v.String()...)\n",
		new:  "\tb = append(b, v.String()...)\n",
	},
	{
		// Two keys whose 64-bit hashes collide fall into one group.
		test: "TestKeyIndexCollisions", pkg: "internal/derive",
		file: "internal/derive/columnar.go",
		old:  "if ix.h[r] == ph && frame.ValuesEqualOn(ix.f, r, ix.cols, pf, j, pcols, convs) {",
		new:  "if ix.h[r] == ph {",
	},
	{
		// Rename relabels the receiver's column as well as the result's.
		test: "TestRenameSharesStorage", pkg: "internal/frame",
		file: "internal/frame/frame.go",
		old:  "\tc := f.cols[i]\n\tc.name = to\n",
		new:  "\tf.cols[i].name = to\n\tc := f.cols[i]\n",
	},
	{
		// A cached plan outlives the statistics it was chosen under.
		test: "TestServerStatsFeedback", pkg: "internal/server",
		file: "internal/server/plancache.go",
		old:  "fmt.Fprintf(&b, \"%d|%d|%g|%s|%s\", version, statsEpoch, window,",
		new:  "fmt.Fprintf(&b, \"%d|%g|%s|%s\", version, window,",
	},
	{
		// A statistics snapshot lists its tables in map order.
		test: "TestEncodeDeterministicRoundTrip", pkg: "internal/stats",
		file: "internal/stats/stats.go",
		old:  "\tsort.Strings(tnames)\n",
		new:  "",
	},
	{
		// A statistics snapshot lists its derivations in map order.
		test: "TestEncodeDeterministicRoundTrip", pkg: "internal/stats",
		file: "internal/stats/stats.go",
		old:  "\tsort.Strings(dkeys)\n",
		new:  "",
	},
}

// witnessSkipDirs are the directories left out of the mutated copy: fixture
// modules, the nested benchmark module, and example programs.
var witnessSkipDirs = map[string]bool{"testdata": true, "benchmark": true, "examples": true}

// apply returns src with the mutation applied, and false when old does not
// occur exactly once.
func (m mutation) apply(src []byte) (string, bool) {
	if strings.Count(string(src), m.old) != 1 {
		return "", false
	}
	return strings.Replace(string(src), m.old, m.new, 1), true
}

// catcher names the row's catcher in failure messages.
func (m mutation) catcher() string {
	if m.analyzer != "" {
		return m.analyzer
	}
	return m.pkg + " " + m.test
}

// TestRealTreeWitnesses checks the mutation table. Analyzer rows: the
// module's non-test sources are copied, every analyzer row is applied, the
// copy is analyzed once with the full suite, and each row's analyzer must
// report in that row's file, with no finding from an analyzer without a
// row. Test rows (only in a -race build of this test, so ci.sh's race
// stage runs them and plain tier-1 does not): each mutation is overlaid on
// the real tree and its test must fail.
func TestRealTreeWitnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a mutated copy of the whole module")
	}
	// A row is added with a new analyzer or a newly caught bug class, and
	// rewritten when a refactor moves its code; dropping one must be a
	// deliberate edit of this count.
	if n := len(mutations); n != 30 {
		t.Fatalf("%d mutation rows, want 30", n)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutations {
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
		if err != nil {
			t.Fatalf("%s row: %v", m.catcher(), err)
		}
		if _, ok := m.apply(src); !ok {
			t.Errorf("%s row in %s: old text does not occur exactly once — update the row to the current code:\n%s",
				m.catcher(), m.file, m.old)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	checkAnalyzerRows(t, root)
	if raceEnabled {
		checkTestRows(t, root)
	}
}

// checkAnalyzerRows applies every analyzer row to one copy of the module's
// non-test sources and analyzes the copy once with the full suite.
func checkAnalyzerRows(t *testing.T, root string) {
	dst := t.TempDir()
	if err := copyModuleSources(root, dst); err != nil {
		t.Fatal(err)
	}
	hasRow := map[string]bool{}
	for _, m := range mutations {
		if m.analyzer == "" {
			continue
		}
		hasRow[m.analyzer] = true
		path := filepath.Join(dst, filepath.FromSlash(m.file))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := m.apply(src)
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range Analyzers() {
		if !hasRow[a.Name] {
			t.Errorf("analyzer %q has no mutation row", a.Name)
		}
	}

	mod, err := LoadModule(dst)
	if err != nil {
		t.Fatalf("mutated copy does not load: %v", err)
	}
	type hit struct{ analyzer, file string }
	fired := map[hit]bool{}
	for _, f := range Run(mod, Analyzers()) {
		rel, err := filepath.Rel(dst, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fired[hit{f.Analyzer, filepath.ToSlash(rel)}] = true
		if !hasRow[f.Analyzer] {
			t.Errorf("finding from an analyzer without a mutation row: %s", formatFindings(mod, []Finding{f}))
		}
	}
	for _, m := range mutations {
		if m.analyzer != "" && !fired[hit{m.analyzer, m.file}] {
			t.Errorf("%s row: no %s finding in %s after the mutation", m.analyzer, m.analyzer, m.file)
		}
	}
}

// checkTestRows overlays each test row's mutation on the real tree and
// runs its test once under -race. The row holds only if the test fails or
// panics; a mutation that does not build is a broken row, never a catch.
func checkTestRows(t *testing.T, root string) {
	dir := t.TempDir()
	for i, m := range mutations {
		if m.test == "" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
		if err != nil {
			t.Fatal(err)
		}
		mutated, _ := m.apply(src)
		file := filepath.Join(dir, "mutated.go")
		if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, err := json.Marshal(map[string]map[string]string{
			"Replace": {filepath.Join(root, filepath.FromSlash(m.file)): file},
		})
		if err != nil {
			t.Fatal(err)
		}
		overlayFile := filepath.Join(dir, "overlay.json")
		if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "test", "-race", "-count=1", "-overlay", overlayFile,
			"-run", "^"+m.test+"$", "./"+m.pkg)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		text := string(out)
		switch {
		case err == nil:
			t.Errorf("row %d (%s): %s passes with the mutation in %s", i, m.catcher(), m.test, m.file)
		case strings.Contains(text, "[build failed]") || strings.Contains(text, "[setup failed]"):
			t.Errorf("row %d (%s): the mutation in %s does not build:\n%s", i, m.catcher(), m.file, text)
		case !strings.Contains(text, "--- FAIL: "+m.test) && !strings.HasPrefix(text, "panic: ") && !strings.Contains(text, "\npanic: "):
			t.Errorf("row %d (%s): go test failed without failing %s:\n%s", i, m.catcher(), m.test, text)
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
