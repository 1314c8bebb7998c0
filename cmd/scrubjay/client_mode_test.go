package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"scrubjay/internal/catalog"
	"scrubjay/internal/rdd"
	"scrubjay/internal/server"
)

// TestCmdQueryServerMode drives the CLI's -server client mode against an
// in-process serving handler: query with a plan file, then replay the
// stored plan with run -server.
func TestCmdQueryServerMode(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	st := server.NewStore()
	if err := st.LoadDir(dir, 2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(st, server.Config{Workers: 2}).Handler())
	defer ts.Close()

	planPath := filepath.Join(t.TempDir(), "plan.json")
	outPath := filepath.Join(t.TempDir(), "out.jsonl")
	err := cmdQuery(ctx, []string{
		"-server", ts.URL,
		"-domains", "job,rack",
		"-values", "application,temperature_difference",
		"-plan", planPath,
		"-out", "jsonl:" + outPath,
		"-show", "0",
	})
	if err != nil {
		t.Fatalf("query -server: %v", err)
	}
	if _, err := os.Stat(planPath); err != nil {
		t.Fatalf("plan file not written: %v", err)
	}
	if fi, err := os.Stat(outPath); err != nil || fi.Size() == 0 {
		t.Fatalf("result not written: %v", err)
	}

	// The stored plan replays through run -server.
	if err := cmdRun(ctx, []string{"-server", ts.URL, "-plan", planPath, "-show", "0"}); err != nil {
		t.Fatalf("run -server: %v", err)
	}

	// A dead server surfaces as an error, not a hang or panic.
	if err := cmdQuery(ctx, []string{"-server", "http://127.0.0.1:1", "-domains", "job", "-values", "application"}); err == nil {
		t.Error("dead server should fail")
	}

	// Local library mode still works against the same catalog (shared
	// loader): guards the thin-wrapper refactor.
	rc := rdd.NewContext(1)
	if _, _, err := catalog.Load(rc, dir); err != nil {
		t.Fatal(err)
	}
}
