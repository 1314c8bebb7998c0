package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scrubjay/internal/shuffle"
)

// TestConcurrentStress hammers one registry + scheduler from many
// goroutines mixing exchanges, heartbeat probes, registrations, and fault
// injection (worker kill + MarkFailed) over a small fleet. Run under -race
// (ci.sh does), this is the proof obligation for the driver sharing one
// scheduler across all in-flight queries. Every successful exchange's
// payload is verified against the deterministic (src, seq) merge, so a
// torn buffer or cross-shuffle mixup surfaces as wrong bytes, not just a
// race report.
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 30
		srcs       = 3
		dsts       = 4
	)
	reg := NewRegistry("stress-driver", 2*time.Second, 2)
	defer reg.Close()

	var srvMu sync.Mutex
	var servers []*shuffle.Server
	var srvSeq int
	addWorker := func() error {
		srvMu.Lock()
		srvSeq++
		id := fmt.Sprintf("sw%d", srvSeq)
		srvMu.Unlock()
		srv, err := shuffle.Serve("127.0.0.1:0", id)
		if err != nil {
			return err
		}
		if _, err := reg.Register(context.Background(), srv.Addr()); err != nil {
			srv.Close()
			return err
		}
		srvMu.Lock()
		servers = append(servers, srv)
		srvMu.Unlock()
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := addWorker(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		srvMu.Lock()
		defer srvMu.Unlock()
		for _, s := range servers {
			s.Close()
		}
	}()

	sched := NewScheduler(reg, Options{StragglerAfter: -1})
	reg.StartHeartbeat(15*time.Millisecond, 3)
	defer reg.StopHeartbeat()

	enc := testEnc(srcs, dsts)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for op := 0; op < opsPerG; op++ {
				switch rng.Intn(10) {
				case 0:
					// Fault injection: kill a random worker's server. The
					// fleet only shrinks to a floor of one live worker
					// because new workers keep arriving below.
					srvMu.Lock()
					if len(servers) > 0 && len(reg.Live()) > 1 {
						servers[rng.Intn(len(servers))].Close()
					}
					srvMu.Unlock()
				case 1:
					if err := addWorker(); err != nil {
						errs <- fmt.Errorf("g%d: addWorker: %w", g, err)
						return
					}
				default:
					stage := fmt.Sprintf("g%d-op%d", g, op)
					out, err := sched.Exchange(context.Background(), stage, dsts, enc)
					if err != nil {
						// An exchange may legitimately fail when fault
						// injection outpaces registration; only silent
						// corruption is a test failure.
						continue
					}
					for d := 0; d < dsts; d++ {
						if got, want := string(out[d]), wantMerged(srcs, d); got != want {
							errs <- fmt.Errorf("g%d %s dst %d: %q != %q", g, stage, d, got, want)
							return
						}
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
}
