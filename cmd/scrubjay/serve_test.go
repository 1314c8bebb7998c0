package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitAddrFile polls for an address file, failing fast if the process
// body that should write it returns first.
func waitAddrFile(t *testing.T, path string, done <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil {
			return strings.TrimSpace(string(data))
		}
		select {
		case err := <-done:
			t.Fatalf("exited before writing %s: %v", path, err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("%s never appeared", path)
	return ""
}

// TestServeWorkerLifecycle boots a worker and a serve that shuffles through
// it, checks the served Fig-5 rows against the local query byte for byte,
// then cancels the context and checks both lifecycles wind down: serve
// drains and writes back its statistics store, its result cache holds
// whole entries only, and the worker's listener closes.
func TestServeWorkerLifecycle(t *testing.T) {
	dir := t.TempDir()
	catDir := filepath.Join(dir, "cat")
	if err := cmdGen(ctx, []string{"-out", catDir, "-racks", "4", "-nodes-per-rack", "6",
		"-amg-rack", "2", "-duration", "1200", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

	workerAddrFile := filepath.Join(dir, "worker.addr")
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- cmdWorker(runCtx, []string{"-addr", "127.0.0.1:0", "-addr-file", workerAddrFile})
	}()
	workerAddr := waitAddrFile(t, workerAddrFile, workerDone)

	serveAddrFile := filepath.Join(dir, "serve.addr")
	cacheDir := filepath.Join(dir, "cache")
	statsPath := filepath.Join(dir, "stats.json")
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- cmdServe(runCtx, []string{"-catalog", catDir, "-addr", "127.0.0.1:0",
			"-addr-file", serveAddrFile, "-cache", cacheDir, "-stats", statsPath,
			"-shuffle-workers", workerAddr, "-drain-ms", "20000"})
	}()
	serveAddr := waitAddrFile(t, serveAddrFile, serveDone)

	query := []string{"-domains", "job,rack", "-values", "application,temperature_difference", "-show", "0"}
	localCSV := filepath.Join(dir, "local.csv")
	servedCSV := filepath.Join(dir, "served.csv")
	if err := cmdQuery(ctx, append([]string{"-catalog", catDir, "-out", "csv:" + localCSV}, query...)); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery(ctx, append([]string{"-server", "http://" + serveAddr, "-out", "csv:" + servedCSV}, query...)); err != nil {
		t.Fatal(err)
	}
	local, err := os.ReadFile(localCSV)
	if err != nil {
		t.Fatal(err)
	}
	served, err := os.ReadFile(servedCSV)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) == 0 || !bytes.Equal(local, served) {
		t.Fatalf("served CSV (%d bytes) differs from local (%d bytes)", len(served), len(local))
	}
	if err := cmdLoad(ctx, []string{"-server", "http://" + serveAddr, "-clients", "2", "-requests", "2",
		"-domains", "job,rack", "-values", "application,temperature_difference"}); err != nil {
		t.Fatal(err)
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker after cancel: %v", err)
	}
	if fi, err := os.Stat(statsPath); err != nil || fi.Size() == 0 {
		t.Errorf("%s not written on drain: %v", statsPath, err)
	}
	if bins, _ := filepath.Glob(filepath.Join(cacheDir, "*.bin")); len(bins) == 0 {
		t.Errorf("served query cached nothing in %s", cacheDir)
	}
	if tmps, _ := filepath.Glob(filepath.Join(cacheDir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("temp files left in the cache: %v", tmps)
	}
	if c, err := net.DialTimeout("tcp", workerAddr, time.Second); err == nil {
		c.Close()
		t.Error("worker still accepts connections after its context was cancelled")
	}
}

// TestUsageErrors: a missing required flag is a usage error (exit 2), not
// a failure (exit 1).
func TestUsageErrors(t *testing.T) {
	for name, run := range map[string]func() error{
		"serve": func() error { return cmdServe(ctx, nil) },
		"gen":   func() error { return cmdGen(ctx, nil) },
		"gen -format": func() error {
			return cmdGen(ctx, []string{"-out", t.TempDir(), "-format", "xml"})
		},
		"load": func() error { return cmdLoad(ctx, nil) },
	} {
		if err := run(); !errors.As(err, new(usageError)) {
			t.Errorf("%s: err = %v, want a usageError", name, err)
		}
	}
}

// TestUsageMatchesDispatch: every subcommand usage lists dispatches, and
// every dispatchable subcommand is listed.
func TestUsageMatchesDispatch(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	listed := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "scrubjay" {
			continue
		}
		listed[f[1]] = true
		if _, ok := lookup(f[1]); !ok {
			t.Errorf("usage lists %q, which does not dispatch", f[1])
		}
	}
	for _, c := range commands {
		if !listed[c.name] {
			t.Errorf("subcommand %q dispatches but usage does not list it", c.name)
		}
	}
	for _, name := range []string{"query", "run", "serve", "worker", "gen", "load", "trace", "show", "dict", "formats", "derivations"} {
		if !listed[name] {
			t.Errorf("usage is missing %q", name)
		}
	}
}
