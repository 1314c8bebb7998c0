// Package cache implements ScrubJay's derivation-result cache (§5.4 of the
// paper): an opt-in, non-volatile store of intermediate derivation results
// keyed by a content hash of the derivation subtree that produced them. Two
// derivation sequences sharing an expensive prefix compute it once; entries
// evict least-recently-used when the cache exceeds its budget.
//
// The directory is its own index: an entry is a <key>.bin file, its size
// the file's, its recency the file's mtime, stamped from the cache's clock
// on Put and on every hit. Nothing else is kept, so Cache values sharing a
// directory (the CLI and a serving daemon) evict within one budget, and an
// entry lands whole (atomicfile.Write): a concurrent Get sees the old or
// the new file, and a crash leaves no torn entry. The cache is safe for
// concurrent readers and writers.
package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/wrappers"
)

// Cache is a directory of cached datasets, one <key>.bin file each.
type Cache struct {
	dir      string
	maxBytes int64
	// now is the clock recency is stamped from, overridable in tests.
	now func() time.Time
}

const entryExt = ".bin"

// Open opens (creating if needed) a cache rooted at dir with a total size
// budget in bytes; maxBytes <= 0 means unlimited.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir, maxBytes: maxBytes, now: time.Now}, nil
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return len(c.entries()) }

// TotalBytes reports the size of all entries.
func (c *Cache) TotalBytes() int64 { return total(c.entries()) }

func (c *Cache) dataPath(key string) string {
	return filepath.Join(c.dir, key+entryExt)
}

// Get loads the cached dataset for key and stamps it recently used.
func (c *Cache) Get(ctx *rdd.Context, key string) (*dataset.Dataset, bool) {
	if !c.touch(key) {
		return nil, false
	}
	ds, err := wrappers.Read(ctx, wrappers.Source{Format: "bin", Path: c.dataPath(key), Name: "cache:" + key})
	if err != nil {
		// A damaged (or concurrently evicted) entry is dropped rather
		// than surfaced.
		c.Delete(key)
		return nil, false
	}
	return ds, true
}

// Put stores a dataset under key and evicts least-recently-used entries
// beyond the budget. Writing computes ds, so it can abort (a cancelled
// request panics through it); the entry is then left as it was.
func (c *Cache) Put(key string, ds *dataset.Dataset) error {
	if err := wrappers.Write(ds, wrappers.Source{Format: "bin", Path: c.dataPath(key)}); err != nil {
		return err
	}
	c.touch(key)
	c.evict()
	return nil
}

// Delete removes an entry.
func (c *Cache) Delete(key string) { os.Remove(c.dataPath(key)) }

// Contains reports whether key is cached (without touching recency).
func (c *Cache) Contains(key string) bool {
	_, err := os.Stat(c.dataPath(key))
	return err == nil
}

// touch stamps key's recency from the cache's clock and reports whether
// the entry exists.
func (c *Cache) touch(key string) bool {
	now := c.now()
	return os.Chtimes(c.dataPath(key), now, now) == nil
}

type entry struct {
	key   string
	bytes int64
	used  time.Time
}

// entries lists the directory's entries, least recently used first, ties
// broken by key.
func (c *Cache) entries() []entry {
	des, _ := os.ReadDir(c.dir)
	var es []entry
	for _, de := range des {
		key, ok := strings.CutSuffix(de.Name(), entryExt)
		if !ok || !de.Type().IsRegular() {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue // removed since the listing
		}
		es = append(es, entry{key: key, bytes: fi.Size(), used: fi.ModTime()})
	}
	sort.Slice(es, func(i, j int) bool {
		if !es[i].used.Equal(es[j].used) {
			return es[i].used.Before(es[j].used)
		}
		return es[i].key < es[j].key
	})
	return es
}

// evict removes the least recently used entries until the directory fits
// the budget, always keeping at least one.
func (c *Cache) evict() {
	if c.maxBytes <= 0 {
		return
	}
	for es := c.entries(); len(es) > 1 && total(es) > c.maxBytes; es = es[1:] {
		c.Delete(es[0].key)
	}
}

func total(es []entry) (n int64) {
	for _, e := range es {
		n += e.bytes
	}
	return n
}

// SetClock overrides the cache's clock; for tests, before the cache is
// shared.
func (c *Cache) SetClock(now func() time.Time) { c.now = now }
