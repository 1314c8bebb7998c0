package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openTestTable(t *testing.T) (*Store, *Table) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("test")
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func TestPutGetDelete(t *testing.T) {
	_, tbl := openTestTable(t)
	if err := tbl.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := tbl.Get("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := tbl.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key error = %v", err)
	}
	if err := tbl.Put("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, _ = tbl.Get("a")
	if string(v) != "2" {
		t.Errorf("overwrite = %q", v)
	}
	if err := tbl.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted key should be missing")
	}
	if err := tbl.Delete("never-existed"); err != nil {
		t.Errorf("deleting absent key: %v", err)
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	_, tbl := openTestTable(t)
	tbl.Put("k", []byte("abc"))
	v, _ := tbl.Get("k")
	v[0] = 'X'
	v2, _ := tbl.Get("k")
	if string(v2) != "abc" {
		t.Error("Get must return an independent copy")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Table("jobs")
	for i := 0; i < 50; i++ {
		tbl.Put(fmt.Sprintf("job%03d", i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	tbl.Delete("job007")
	tbl.Put("job042", []byte("payload-42b"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2, _ := s2.Table("jobs")
	if tbl2.Len() != 49 {
		t.Errorf("reopened Len = %d, want 49", tbl2.Len())
	}
	v, err := tbl2.Get("job042")
	if err != nil || string(v) != "payload-42b" {
		t.Errorf("reopened Get = %q, %v (the last put wins)", v, err)
	}
	if _, err := tbl2.Get("job007"); !errors.Is(err, ErrNotFound) {
		t.Error("delete should persist")
	}
}

func TestScanAndKeysSortedWithPrefix(t *testing.T) {
	_, tbl := openTestTable(t)
	tbl.Put("b:2", []byte("x"))
	tbl.Put("a:1", []byte("x"))
	tbl.Put("a:0", []byte("x"))
	tbl.Put("c:9", []byte("x"))
	keys := tbl.Keys("a:")
	if len(keys) != 2 || keys[0] != "a:0" || keys[1] != "a:1" {
		t.Errorf("Keys = %v", keys)
	}
	var visited []string
	tbl.Scan("", func(k string, v []byte) bool {
		visited = append(visited, k)
		return true
	})
	if len(visited) != 4 || visited[0] != "a:0" || visited[3] != "c:9" {
		t.Errorf("Scan order = %v", visited)
	}
	// Early stop.
	n := 0
	tbl.Scan("", func(k string, v []byte) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("Scan early stop visited %d", n)
	}
}

func TestTableNameValidation(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, bad := range []string{"", "a/b", "a\\b"} {
		if _, err := s.Table(bad); err == nil {
			t.Errorf("Table(%q) should fail", bad)
		}
	}
}

func TestTableNames(t *testing.T) {
	s, _ := Open(t.TempDir())
	s.Table("zeta")
	s.Table("alpha")
	names, err := s.TableNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestTableReuseSameHandle(t *testing.T) {
	s, _ := Open(t.TempDir())
	a, _ := s.Table("x")
	b, _ := s.Table("x")
	if a != b {
		t.Error("same table should return same handle")
	}
}

func TestClosedTableRejectsWrites(t *testing.T) {
	s, _ := Open(t.TempDir())
	tbl, _ := s.Table("x")
	tbl.Close()
	if err := tbl.Put("k", nil); err == nil {
		t.Error("Put after Close should fail")
	}
	if err := tbl.Delete("k"); err == nil {
		t.Error("Delete after Close should fail")
	}
	if err := tbl.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestCorruptLogDetected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.log"), []byte{99, 1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := Open(dir)
	if _, err := s.Table("bad"); err == nil {
		t.Error("corrupt log should fail to open")
	}
	// Truncated record.
	if err := os.WriteFile(filepath.Join(dir, "trunc.log"), []byte{1, 10, 0, 0, 0, 'a'}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table("trunc"); err == nil {
		t.Error("truncated log should fail to open")
	}
}

func TestQuickStoreBehavesLikeMap(t *testing.T) {
	type op struct {
		Del bool
		Key uint8
		Val uint16
	}
	prop := func(ops []op) bool {
		dir, err := os.MkdirTemp("", "kvq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := Open(dir)
		if err != nil {
			return false
		}
		tbl, err := s.Table("t")
		if err != nil {
			return false
		}
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%16)
			if o.Del {
				tbl.Delete(k)
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", o.Val)
				tbl.Put(k, []byte(v))
				model[k] = v
			}
		}
		// Check against model, then reopen and check again.
		check := func(tb *Table) bool {
			if tb.Len() != len(model) {
				return false
			}
			for k, want := range model {
				got, err := tb.Get(k)
				if err != nil || string(got) != want {
					return false
				}
			}
			return true
		}
		if !check(tbl) {
			return false
		}
		s.Close()
		s2, err := Open(dir)
		if err != nil {
			return false
		}
		defer s2.Close()
		tbl2, err := s2.Table("t")
		if err != nil {
			return false
		}
		return check(tbl2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
