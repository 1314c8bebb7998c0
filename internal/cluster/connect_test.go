package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteAddrFile: the address lands whole, newline-terminated, with no
// temp file left beside it.
func TestWriteAddrFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.addr")
	for _, addr := range []string{"127.0.0.1:7401", "127.0.0.1:40000"} {
		if err := WriteAddrFile(path, addr); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != addr+"\n" {
			t.Errorf("addr file = %q, %v; want %q", got, err, addr+"\n")
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir holds %d entries, want just the addr file: %v", len(entries), entries)
	}
}
