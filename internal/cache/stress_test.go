package cache

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scrubjay/internal/rdd"
)

// TestConcurrentStress hammers one cache from many goroutines mixing Put,
// Get, Contains, and Delete over a small key space, with a budget tight
// enough to force constant LRU eviction. Run under -race (ci.sh does),
// this is the proof obligation for the serving layer sharing one cache
// across all in-flight queries. Content is verified on every hit: key ki always stores 10+i
// rows, so a torn or mixed-up file surfaces as a wrong count.
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 60
		keys       = 8
	)
	ctx := rdd.NewContext(2)
	dir := t.TempDir()
	// ~8KB budget vs ~1KB per entry keeps eviction active without ever
	// emptying the cache.
	c, err := Open(dir, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := func(i int) int { return 10 + i }

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for op := 0; op < opsPerG; op++ {
				i := rng.Intn(keys)
				key := fmt.Sprintf("k%d", i)
				switch rng.Intn(4) {
				case 0, 1:
					if err := c.Put(key, smallDataset(ctx, wantRows(i))); err != nil {
						errs <- fmt.Errorf("Put(%s): %w", key, err)
						return
					}
				case 2:
					if ds, ok := c.Get(ctx, key); ok {
						if n := ds.Count(); n != int64(wantRows(i)) {
							errs <- fmt.Errorf("Get(%s) = %d rows, want %d", key, n, wantRows(i))
							return
						}
					}
				case 3:
					if rng.Intn(8) == 0 {
						c.Delete(key)
					} else {
						c.Contains(key)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Quiescent state: every staged temp file was renamed or removed.
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
	// The flushed index reopens, and every surviving entry still verifies.
	c2, err := Open(dir, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		if ds, ok := c2.Get(ctx, key); ok {
			hits++
			if n := ds.Count(); n != int64(wantRows(i)) {
				t.Errorf("reopened Get(%s) = %d rows, want %d", key, n, wantRows(i))
			}
			if !strings.HasPrefix(ds.Name(), "cache:") {
				t.Errorf("cached dataset name = %q", ds.Name())
			}
		}
	}
	if hits == 0 {
		t.Error("no entries survived the stress run")
	}
}
