// Package atomicfile lands a file whole or not at all. Every file ScrubJay
// persists (unwraps and their schema sidecars, result-cache entries, the
// statistics store, address files, the CLI's plan and trace outputs) goes
// through Write, so a reader, or a restart after a crash, sees the old file
// or the new one, never a torn mix (§5.4: stored results must replay).
package atomicfile

import (
	"bufio"
	"os"
	"path/filepath"
)

// Write writes path through a buffer with write. The bytes go to a *.tmp
// file in path's directory, which is flushed, synced, closed and renamed
// over path; then the directory is synced, so the rename survives a crash.
// On every exit that does not rename, panics included, the temp file is
// removed and path keeps its old content. The file lands with mode 0644.
func Write(path string, write func(*bufio.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		if !renamed {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	renamed = true
	return syncDir(dir)
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
