// Package cache implements ScrubJay's derivation-result cache (§5.4 of the
// paper): an opt-in, non-volatile store of intermediate derivation results
// keyed by a content hash of the derivation subtree that produced them. Two
// derivation sequences sharing an expensive prefix compute it once; entries
// evict least-recently-used when the cache exceeds its budget.
//
// The cache is safe for concurrent readers and writers (the serving layer
// shares one cache across all in-flight queries). The locking discipline:
// c.mu guards only the in-memory index — all file IO (data files, index
// persistence) happens outside the lock, and every file write lands via
// create-temp-then-rename so concurrent operations on the same key never
// expose a torn file.
package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/wrappers"
)

// Cache is a directory of cached datasets with an LRU index.
type Cache struct {
	dir      string
	maxBytes int64
	// tmpSeq numbers temp files so concurrent writers never collide.
	tmpSeq atomic.Int64

	mu    sync.Mutex
	index map[string]*entry
	// now is the clock, overridable in tests.
	now func() time.Time
}

type entry struct {
	Key      string    `json:"key"`
	Bytes    int64     `json:"bytes"`
	LastUsed time.Time `json:"last_used"`
}

const indexFile = "index.json"

// Open opens (creating if needed) a cache rooted at dir with a total size
// budget in bytes; maxBytes <= 0 means unlimited.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, index: map[string]*entry{}, now: time.Now}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err == nil {
		var entries []*entry
		if err := json.Unmarshal(data, &entries); err == nil {
			for _, e := range entries {
				c.index[e.Key] = e
			}
		}
	}
	return c, nil
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// TotalBytes reports the recorded size of all entries.
func (c *Cache) TotalBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalLocked()
}

func (c *Cache) totalLocked() int64 {
	var n int64
	for _, e := range c.index {
		n += e.Bytes
	}
	return n
}

func (c *Cache) dataPath(key string) string {
	return filepath.Join(c.dir, key+".bin")
}

// tmpPath returns a unique temp path in the cache directory for staging a
// write that will be renamed into place.
func (c *Cache) tmpPath(key string) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s.%d.tmp", key, c.tmpSeq.Add(1)))
}

// Get loads the cached dataset for key, marking it recently used. Recency
// updates are persisted lazily (on the next Put, Delete, or Flush), so hits
// never pay an index write.
func (c *Cache) Get(ctx *rdd.Context, key string) (*dataset.Dataset, bool) {
	c.mu.Lock()
	e, ok := c.index[key]
	if ok {
		e.LastUsed = c.now()
	}
	c.mu.Unlock()
	if !ok {
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

// Put stores a dataset under key and evicts LRU entries beyond the budget.
// The data file is staged to a temp path and renamed into place, so a
// concurrent Get of the same key sees either the old or the new complete
// file, never a partial write. Writing computes ds, so it can abort (a
// cancelled request panics through it); the temp file goes on every exit
// that does not rename it.
func (c *Cache) Put(key string, ds *dataset.Dataset) error {
	path := c.dataPath(key)
	tmp := c.tmpPath(key)
	defer os.Remove(tmp) // a no-op once renamed
	if err := wrappers.Write(ds, wrappers.Source{Format: "bin", Path: tmp}); err != nil {
		return err
	}
	var size int64
	if fi, err := os.Stat(tmp); err == nil {
		size = fi.Size()
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.mu.Lock()
	c.index[key] = &entry{Key: key, Bytes: size, LastUsed: c.now()}
	victims := c.evictVictimsLocked()
	c.mu.Unlock()
	c.dropFiles(victims)
	return c.saveIndex()
}

// Delete removes an entry.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	delete(c.index, key)
	c.mu.Unlock()
	os.Remove(c.dataPath(key))
	c.saveIndex()
}

// Flush persists the LRU index (recency updates from Get are otherwise
// written lazily). The serving layer calls this during graceful shutdown.
func (c *Cache) Flush() error { return c.saveIndex() }

// Contains reports whether key is cached (without touching recency).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// evictVictimsLocked removes least-recently-used entries from the index
// until within budget and returns their keys. Callers drop the data files
// after releasing c.mu — no IO under the lock.
func (c *Cache) evictVictimsLocked() []string {
	if c.maxBytes <= 0 {
		return nil
	}
	var victims []string
	for c.totalLocked() > c.maxBytes && len(c.index) > 1 {
		var oldest *entry
		for _, e := range c.index {
			if oldest == nil || e.LastUsed.Before(oldest.LastUsed) {
				oldest = e
			}
		}
		delete(c.index, oldest.Key)
		victims = append(victims, oldest.Key)
	}
	return victims
}

// dropFiles removes evicted entries' data files. Must be called without
// c.mu held.
func (c *Cache) dropFiles(keys []string) {
	for _, k := range keys {
		os.Remove(c.dataPath(k))
	}
}

// saveIndex persists the LRU index. The entries are snapshotted by value
// under the lock (other goroutines keep mutating LastUsed), marshaled
// outside it, and the file lands via rename so readers never see a torn
// index.
func (c *Cache) saveIndex() error {
	c.mu.Lock()
	entries := make([]entry, 0, len(c.index))
	for _, e := range c.index {
		entries = append(entries, *e)
	}
	c.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	data, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		return err
	}
	tmp := c.tmpPath("index")
	defer os.Remove(tmp) // a no-op once renamed
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(c.dir, indexFile))
}

// SetClock overrides the cache's clock; for tests.
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}
