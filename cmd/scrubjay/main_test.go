package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"scrubjay/internal/bench"
	"scrubjay/internal/catalog"
	"scrubjay/internal/rdd"
	"scrubjay/internal/wrappers"
)

// writeTestCatalog generates a tiny DAT-1 catalog into dir.
func writeTestCatalog(t *testing.T, dir string) {
	t.Helper()
	rc := rdd.NewContext(2)
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks = 4
	cfg.NodesPerRack = 6
	cfg.AMGRack = 2
	cfg.DAT1DurationSec = 1800
	cat, _, _ := bench.DAT1Catalog(rc, cfg)
	for name, ds := range cat {
		if err := wrappers.Write(ds, wrappers.Source{Format: "jsonl", Path: filepath.Join(dir, name+".jsonl")}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseSink(t *testing.T) {
	src, err := parseSink("csv:/tmp/x.csv")
	if err != nil || src.Format != "csv" || src.Path != "/tmp/x.csv" {
		t.Errorf("parseSink = %+v, %v", src, err)
	}
	for _, bad := range []string{"", "noformat", ":path"} {
		if _, err := parseSink(bad); err == nil {
			t.Errorf("parseSink(%q) should fail", bad)
		}
	}
}

func TestLoadCatalog(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	// Add a file the loader must skip.
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644)
	rc := rdd.NewContext(1)
	cat, schemas, err := catalog.Load(rc, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job_queue_log", "node_layout", "rack_temperatures"} {
		if _, ok := cat[want]; !ok {
			t.Errorf("catalog missing %q", want)
		}
		if _, ok := schemas[want]; !ok {
			t.Errorf("schemas missing %q", want)
		}
	}
	// Empty catalog fails.
	if _, _, err := catalog.Load(rc, t.TempDir()); err == nil {
		t.Error("empty catalog should fail")
	}
	// Missing directory fails.
	if _, _, err := catalog.Load(rc, filepath.Join(dir, "nope")); err == nil {
		t.Error("missing dir should fail")
	}
}

func TestCmdQueryRunShowEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	planPath := filepath.Join(dir, "out", "plan.json")
	os.MkdirAll(filepath.Dir(planPath), 0o755)
	outPath := filepath.Join(dir, "out", "result.csv")

	// query: solve, execute, store plan and result.
	err := cmdQuery(ctx, []string{
		"-catalog", dir,
		"-domains", "job,rack",
		"-values", "application,temperature_difference",
		"-plan", planPath,
		"-out", "csv:" + outPath,
		"-show", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(planPath); err != nil {
		t.Fatalf("plan not written: %v", err)
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Fatalf("result not written: %v", err)
	}

	// run: replay the stored plan, with a cache.
	cacheDir := filepath.Join(dir, "out", "cache")
	if err := cmdRun(ctx, []string{
		"-catalog", dir,
		"-plan", planPath,
		"-cache", cacheDir,
		"-show", "1",
	}); err != nil {
		t.Fatal(err)
	}
	// Second replay hits the cache.
	if err := cmdRun(ctx, []string{
		"-catalog", dir,
		"-plan", planPath,
		"-cache", cacheDir,
		"-show", "0",
	}); err != nil {
		t.Fatal(err)
	}

	// show: inspect the unwrapped result.
	if err := cmdShow(ctx, []string{"-in", "csv:" + outPath, "-n", "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdQueryCacheFollowsCatalogEdit: a result-cache entry is named by the
// content its sources held, so after node_layout.jsonl is rewritten in
// place a query through the warm cache writes the uncached query's CSV.
func TestCmdQueryCacheFollowsCatalogEdit(t *testing.T) {
	dir := t.TempDir()
	catDir, cacheDir := filepath.Join(dir, "cat"), filepath.Join(dir, "cache")
	if err := os.Mkdir(catDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeTestCatalog(t, catDir)
	query := func(name string, extra ...string) []byte {
		out := filepath.Join(dir, name+".csv")
		if err := cmdQuery(ctx, append([]string{"-catalog", catDir, "-domains", "job,rack",
			"-values", "application,temperature_difference", "-out", "csv:" + out}, extra...)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := query("before", "-cache", cacheDir)
	// Move every node to rack00, rewriting the file in place.
	layout := filepath.Join(catDir, "node_layout.jsonl")
	b, err := os.ReadFile(layout)
	if err != nil {
		t.Fatal(err)
	}
	b = regexp.MustCompile(`"s":"rack\d+"`).ReplaceAll(b, []byte(`"s":"rack00"`))
	if err := os.WriteFile(layout, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, want := query("cached", "-cache", cacheDir), query("uncached")
	if bytes.Equal(want, before) {
		t.Fatal("rewriting node_layout did not change the result")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cached query after the edit:\n%s\nuncached:\n%s", got, want)
	}
}

func TestCmdQueryValueUnits(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	if err := cmdQuery(ctx, []string{
		"-catalog", dir,
		"-domains", "rack",
		"-values", "temperature:degrees_fahrenheit",
		"-show", "1",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdQuery(ctx, []string{"-domains", "x"}); err == nil {
		t.Error("query without catalog should fail")
	}
	if err := cmdRun(ctx, []string{"-catalog", "/tmp"}); err == nil {
		t.Error("run without plan should fail")
	}
	if err := cmdShow(ctx, []string{}); err == nil {
		t.Error("show without input should fail")
	}
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	if err := cmdQuery(ctx, []string{"-catalog", dir, "-domains", "job", "-values", "power"}); err == nil {
		t.Error("unsatisfiable query should fail")
	}
	// Corrupt plan file.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := cmdRun(ctx, []string{"-catalog", dir, "-plan", bad}); err == nil {
		t.Error("corrupt plan should fail")
	}
	// Missing plan file.
	if err := cmdRun(ctx, []string{"-catalog", dir, "-plan", filepath.Join(dir, "none.json")}); err == nil {
		t.Error("missing plan should fail")
	}
}

func TestCmdDictAndFormats(t *testing.T) {
	if err := cmdDict(ctx, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseSinkKV(t *testing.T) {
	src, err := parseSink("kv:/data/store:jobs")
	if err != nil || src.Format != "kv" || src.Path != "/data/store" || src.Table != "jobs" {
		t.Errorf("parseSink kv = %+v, %v", src, err)
	}
	for _, bad := range []string{"kv:/data/store", "kv::t", "kv:/x:"} {
		if _, err := parseSink(bad); err == nil {
			t.Errorf("parseSink(%q) should fail", bad)
		}
	}
}

func TestLoadCatalogKV(t *testing.T) {
	dir := t.TempDir()
	rc := rdd.NewContext(2)
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks = 3
	cfg.NodesPerRack = 4
	cfg.AMGRack = 1
	cfg.DAT1DurationSec = 1200
	cat, _, _ := bench.DAT1Catalog(rc, cfg)
	for name, ds := range cat {
		if err := wrappers.Write(ds, wrappers.Source{Format: "kv", Path: dir, Table: name}); err != nil {
			t.Fatal(err)
		}
	}
	loaded, schemas, err := catalog.Load(rc, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job_queue_log", "node_layout", "rack_temperatures"} {
		if _, ok := loaded[want]; !ok {
			t.Errorf("kv catalog missing %q", want)
		}
		if _, ok := schemas[want]; !ok {
			t.Errorf("kv schemas missing %q", want)
		}
	}
	// A query over the kv catalog works end to end.
	if err := cmdQuery(ctx, []string{
		"-catalog", dir,
		"-domains", "rack",
		"-values", "temperature",
		"-show", "1",
	}); err != nil {
		t.Fatal(err)
	}
}

// ctx is the context the subcommand bodies run under in tests.
var ctx = context.Background()
