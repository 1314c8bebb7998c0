package atomicfile

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(*bufio.Writer) error {
	return func(w *bufio.Writer) error {
		_, err := w.WriteString(s)
		return err
	}
}

func TestWriteReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	for _, want := range []string{"first\n", "second, longer\n", ""} {
		if err := Write(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("file holds %q, want %q", got, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Errorf("mode %v, want 0644", fi.Mode().Perm())
		}
	}
	assertNoTemp(t, filepath.Dir(path))
}

// TestFailedWriteKeepsOldFile: a write that returns an error and one that
// panics each leave the existing target byte-identical and no temp file.
func TestFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	const old = "a,b\n1,2\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	failing := func(w *bufio.Writer) error {
		w.WriteString("half a new fi")
		w.Flush()
		return boom
	}
	if err := Write(path, failing); !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want %v", err, boom)
	}
	assertContent(t, path, old)
	assertNoTemp(t, dir)

	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("recovered %v, want the write's panic", r)
			}
		}()
		Write(path, func(w *bufio.Writer) error {
			w.WriteString("half a new fi")
			w.Flush()
			panic(boom)
		})
	}()
	assertContent(t, path, old)
	assertNoTemp(t, dir)
}

func TestWriteMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "out")
	if err := Write(path, writeString("x")); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}

func assertContent(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("%s holds %q, want the old %q", path, got, want)
	}
}

func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}
