// Package kvstore is a small embedded key-value store: the stand-in for the
// NoSQL database (Cassandra) behind the paper's deployment. Each table is an
// append-only log of put/delete records with an in-memory index rebuilt on
// open. It provides exactly what ScrubJay's wrappers need — durable tables
// of byte values with ordered scans — without external dependencies.
package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("kvstore: key not found")

const (
	opPut    byte = 1
	opDelete byte = 2
)

// Store is a directory of tables.
type Store struct {
	dir string

	mu     sync.Mutex
	tables map[string]*Table
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	return &Store{dir: dir, tables: make(map[string]*Table)}, nil
}

// Table opens (creating if needed) a named table. Table names must be
// filesystem-safe.
func (s *Store) Table(name string) (*Table, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("kvstore: bad table name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[name]; ok {
		return t, nil
	}
	t := &Table{path: filepath.Join(s.dir, name+".log"), index: make(map[string][]byte)}
	if err := t.load(); err != nil {
		return nil, err
	}
	s.tables[name] = t
	return t, nil
}

// TableNames lists the tables present on disk, sorted.
func (s *Store) TableNames() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".log"); ok && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Close closes all open tables.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, t := range s.tables {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.tables = make(map[string]*Table)
	return first
}

// Table is one append-only keyed log with an in-memory index.
type Table struct {
	path string

	mu    sync.RWMutex
	file  *os.File
	w     *bufio.Writer
	index map[string][]byte
}

// load replays the log into the index and opens the file for appends.
func (t *Table) load() error {
	f, err := os.OpenFile(t.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	r := bufio.NewReader(f)
	for {
		op, key, val, err := readRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("kvstore: corrupt log %s: %w", t.path, err)
		}
		switch op {
		case opPut:
			t.index[key] = val
		case opDelete:
			delete(t.index, key)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	t.file = f
	t.w = bufio.NewWriter(f)
	return nil
}

func readRecord(r *bufio.Reader) (op byte, key string, val []byte, err error) {
	op, err = r.ReadByte()
	if err != nil {
		return 0, "", nil, err
	}
	if op != opPut && op != opDelete {
		return 0, "", nil, fmt.Errorf("bad op %d", op)
	}
	var klen, vlen uint32
	if err = binary.Read(r, binary.LittleEndian, &klen); err != nil {
		return 0, "", nil, unexpectedEOF(err)
	}
	kbuf := make([]byte, klen)
	if _, err = io.ReadFull(r, kbuf); err != nil {
		return 0, "", nil, unexpectedEOF(err)
	}
	if op == opDelete {
		return op, string(kbuf), nil, nil
	}
	if err = binary.Read(r, binary.LittleEndian, &vlen); err != nil {
		return 0, "", nil, unexpectedEOF(err)
	}
	vbuf := make([]byte, vlen)
	if _, err = io.ReadFull(r, vbuf); err != nil {
		return 0, "", nil, unexpectedEOF(err)
	}
	return op, string(kbuf), vbuf, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func writeRecord(w io.Writer, op byte, key string, val []byte) error {
	if _, err := w.Write([]byte{op}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(key))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, key); err != nil {
		return err
	}
	if op == opDelete {
		return nil
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(val))); err != nil {
		return err
	}
	_, err := w.Write(val)
	return err
}

// Put stores val under key.
func (t *Table) Put(key string, val []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.file == nil {
		return errors.New("kvstore: table closed")
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	if err := writeRecord(t.w, opPut, key, cp); err != nil {
		return err
	}
	t.index[key] = cp
	return nil
}

// Get fetches the value stored under key.
func (t *Table) Get(key string) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Delete removes key. Deleting a missing key is a no-op.
func (t *Table) Delete(key string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.file == nil {
		return errors.New("kvstore: table closed")
	}
	if _, ok := t.index[key]; !ok {
		return nil
	}
	if err := writeRecord(t.w, opDelete, key, nil); err != nil {
		return err
	}
	delete(t.index, key)
	return nil
}

// Len reports the number of live keys.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.index)
}

// Keys returns all live keys with the given prefix, sorted.
func (t *Table) Keys(prefix string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var keys []string
	for k := range t.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Scan calls fn for each live key with the given prefix in sorted order,
// stopping early if fn returns false.
func (t *Table) Scan(prefix string, fn func(key string, val []byte) bool) {
	for _, k := range t.Keys(prefix) {
		v, err := t.Get(k)
		if err != nil {
			continue // deleted concurrently
		}
		if !fn(k, v) {
			return
		}
	}
}

// Flush forces buffered appends to the OS.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return nil
	}
	return t.w.Flush()
}

// Close flushes and closes the table file.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.file == nil {
		return nil
	}
	if err := t.w.Flush(); err != nil {
		return err
	}
	err := t.file.Close()
	t.file = nil
	t.w = nil
	return err
}
