// Package engine is the dirty half of the multi-package fixture: exactly one
// finding per analyzer.
package engine

import (
	"context"
	"sync"
	"time"
)

// Server guards a channel with a mutex.
type Server struct {
	mu sync.Mutex
	ch chan int
}

// Stamp reads the wall clock in engine code (determinism).
func Stamp() int64 { return time.Now().UnixNano() }

// Push sends on a channel while holding the mutex (lockdiscipline).
func (s *Server) Push(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v
}

// Drain blocks on the done channel but never consults its context — the
// ctxflow violation (cancellation cannot reach the receive).
func Drain(ctx context.Context, done chan struct{}) {
	<-done
}
