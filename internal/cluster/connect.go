package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scrubjay/internal/shuffle"
)

// Connect is the one-call setup a query driver uses: parse a
// comma-separated worker address list, register every worker, start the
// heartbeat, and return a ready Scheduler. Close the returned scheduler's
// Registry when done.
func Connect(ctx context.Context, driverName, addrList string, opts Options) (*Scheduler, error) {
	addrs := strings.Split(addrList, ",")
	reg := NewRegistry(driverName, 5*time.Second, 4)
	n := 0
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if _, err := reg.Register(ctx, a); err != nil {
			reg.Close()
			return nil, err
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses in %q", addrList)
	}
	reg.StartHeartbeat(500*time.Millisecond, 3)
	return NewScheduler(reg, opts), nil
}

// RunWorker is a shard worker's whole lifecycle: serve the shuffle exchange
// on addr (port 0 picks a free one), land the bound address in addrFile
// when it is set, and close the listener once ctx is cancelled. id is the
// identity reported to drivers; empty means the bound address.
func RunWorker(ctx context.Context, addr, addrFile, id string) error {
	srv, err := shuffle.Serve(addr, id)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := WriteAddrFile(addrFile, srv.Addr()); err != nil {
			srv.Close()
			return err
		}
	}
	fmt.Printf("worker %s listening on %s\n", srv.ID(), srv.Addr())
	<-ctx.Done()
	fmt.Printf("worker %s: shutting down\n", srv.ID())
	return srv.Close()
}

// WriteAddrFile lands addr plus a newline in path via temp + rename, so a
// script polling for the file never reads it empty or half written.
func WriteAddrFile(path, addr string) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
