package cache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
	"scrubjay/internal/wrappers"
)

func smallDataset(ctx *rdd.Context, n int) *dataset.Dataset {
	s := semantics.NewSchema("x", semantics.ValueEntry("count", "count"))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.NewRow("x", value.Int(int64(i)))
	}
	return dataset.FromRows(ctx, "small", rows, s, 1)
}

func TestPutGetRoundTrip(t *testing.T) {
	ctx := rdd.NewContext(1)
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(ctx, 10)
	if err := c.Put("k1", ds); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("k1") || c.Len() != 1 {
		t.Error("entry should exist")
	}
	got, ok := c.Get(ctx, "k1")
	if !ok {
		t.Fatal("Get failed")
	}
	if got.Count() != 10 {
		t.Errorf("count = %d", got.Count())
	}
	if !got.Schema().Equal(ds.Schema()) {
		t.Error("schema lost")
	}
	if _, ok := c.Get(ctx, "missing"); ok {
		t.Error("missing key should miss")
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	ctx := rdd.NewContext(1)
	dir := t.TempDir()
	c, _ := Open(dir, 0)
	c.Put("persist", smallDataset(ctx, 5))

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(ctx, "persist")
	if !ok || got.Count() != 5 {
		t.Errorf("reopened cache lost entry: %v %v", got, ok)
	}
	if c2.TotalBytes() <= 0 {
		t.Error("sizes should persist")
	}
}

func TestLRUEviction(t *testing.T) {
	ctx := rdd.NewContext(1)
	c, _ := Open(t.TempDir(), 1) // 1-byte budget: force eviction to a single entry
	base := time.Unix(1000, 0)
	tick := 0
	c.SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	})
	c.Put("a", smallDataset(ctx, 50))
	c.Put("b", smallDataset(ctx, 50))
	// Budget of 1 byte retains only the most recent entry.
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Contains("a") || !c.Contains("b") {
		t.Error("LRU should evict the older entry")
	}
}

// TestColdTierDisabledMisses checks that eviction discards an entry's data:
// the cache keeps no second tier to fall back on.
func TestColdTierDisabledMisses(t *testing.T) {
	ctx := rdd.NewContext(1)
	c, _ := Open(t.TempDir(), 1)
	base := time.Unix(1000, 0)
	tick := 0
	c.SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	})
	c.Put("old", smallDataset(ctx, 40))
	c.Put("new", smallDataset(ctx, 10))
	if _, ok := c.Get(ctx, "old"); ok {
		t.Error("evicted entries are gone")
	}
}

func TestLRUTouchOnGet(t *testing.T) {
	ctx := rdd.NewContext(1)
	// Budget that fits about two small entries; entry sizes are a few
	// hundred bytes each.
	c, _ := Open(t.TempDir(), 2500)
	base := time.Unix(1000, 0)
	tick := 0
	c.SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	})
	c.Put("a", smallDataset(ctx, 20))
	c.Put("b", smallDataset(ctx, 20))
	// Touch a, making b the LRU entry.
	if _, ok := c.Get(ctx, "a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Put("c", smallDataset(ctx, 20))
	if !c.Contains("a") {
		t.Error("recently used entry evicted")
	}
	if c.Contains("b") && c.TotalBytes() > 2500 {
		t.Error("cache exceeded budget without evicting LRU")
	}
}

func TestDelete(t *testing.T) {
	ctx := rdd.NewContext(1)
	c, _ := Open(t.TempDir(), 0)
	c.Put("x", smallDataset(ctx, 3))
	c.Delete("x")
	if c.Contains("x") || c.Len() != 0 {
		t.Error("delete failed")
	}
	if _, ok := c.Get(ctx, "x"); ok {
		t.Error("deleted entry should miss")
	}
	// Deleting again is a no-op.
	c.Delete("x")
}

func TestDamagedEntryDropped(t *testing.T) {
	ctx := rdd.NewContext(1)
	dir := t.TempDir()
	c, _ := Open(dir, 0)
	c.Put("hurt", smallDataset(ctx, 3))
	// Corrupt the data file.
	if err := writeFile(c.dataPath("hurt"), "{broken\n"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(ctx, "hurt"); ok {
		t.Error("damaged entry should miss")
	}
	if c.Contains("hurt") {
		t.Error("damaged entry should be dropped")
	}
}

// TestCanceledPutLeavesNoTempFile: Put computes a lazy dataset while it
// writes, so a cancelled request aborts it mid-write with a *rdd.Canceled
// panic. The staged temp file goes with the write, and the key stays
// absent.
func TestCanceledPutLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := smallDataset(rdd.NewContext(1).WithGoContext(gctx), 10)
	perr, err := rdd.Guard(func() error { return c.Put("k1", ds) })
	if err == nil {
		err = perr
	}
	var canceled *rdd.Canceled
	if !errors.As(err, &canceled) {
		t.Fatalf("Put under a cancelled context returned %v, want a *rdd.Canceled", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("cancelled Put left %v", tmps)
	}
	if c.Contains("k1") {
		t.Error("cancelled Put cached k1")
	}
}

// TestSharedDirectoryStaysInBudget: the CLI and a serving daemon may share
// one cache directory through two Cache values. Entries either one writes
// count against the budget both enforce, and a .bin file no Put of this
// process wrote (left by another process, or by a crash) is served and
// evicted like any other.
func TestSharedDirectoryStaysInBudget(t *testing.T) {
	ctx := rdd.NewContext(1)
	base := time.Unix(1000, 0)
	tick := 0
	clock := func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	}
	binFiles := func(dir string) []string {
		files, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
		return files
	}

	t.Run("two caches", func(t *testing.T) {
		dir := t.TempDir()
		c1, err := Open(dir, 1) // a one-entry budget
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Open(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		c1.SetClock(clock)
		c2.SetClock(clock)
		for i, c := range []*Cache{c1, c2, c1, c2} {
			if err := c.Put(fmt.Sprintf("k%d", i), smallDataset(ctx, 20)); err != nil {
				t.Fatal(err)
			}
		}
		if files := binFiles(dir); len(files) != 1 || filepath.Base(files[0]) != "k3.bin" {
			t.Errorf("one-entry budget shared by two caches holds %v, want only the newest k3.bin", files)
		}
	})

	t.Run("unlisted entry", func(t *testing.T) {
		dir := t.TempDir()
		orphan := filepath.Join(dir, "orphan.bin")
		if err := wrappers.Write(smallDataset(ctx, 7), wrappers.Source{Format: "bin", Path: orphan}); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.SetClock(clock)
		if c.Len() != 1 || !c.Contains("orphan") {
			t.Errorf("Len = %d, Contains(orphan) = %v: the directory's entry is not listed", c.Len(), c.Contains("orphan"))
		}
		if ds, ok := c.Get(ctx, "orphan"); !ok || ds.Count() != 7 {
			t.Fatalf("Get(orphan) = %v, %v; want its 7 rows", ds, ok)
		}
		// Put stamps a newer entry, so the orphan is the one evicted.
		if err := c.Put("a", smallDataset(ctx, 20)); err != nil {
			t.Fatal(err)
		}
		if files := binFiles(dir); len(files) != 1 || filepath.Base(files[0]) != "a.bin" {
			t.Errorf("after Put(a) the one-entry cache holds %v, want only a.bin", files)
		}
	})
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
