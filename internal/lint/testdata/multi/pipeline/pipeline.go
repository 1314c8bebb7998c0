// Package pipeline is the clean half of the multi-package fixture: it does
// the same kinds of work as engine, the invariant-respecting way, and must
// produce zero findings.
package pipeline

import (
	"context"

	"sort"
	"sync"

	"sjvetmulti/rdd"
)

// Registry is a mutex-guarded name table.
type Registry struct {
	mu sync.Mutex
	m  map[string]int
}

// Names lists registered names deterministically (sorted after the map walk)
// and never blocks while holding the mutex.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for k := range r.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Doubled uses a pure compute closure.
func Doubled(r *rdd.RDD) []int {
	return rdd.Map(r, func(v int) int { return v * 2 }).Collect()
}

// Wait threads its context through the blocking wait — the clean pattern.
func Wait(ctx context.Context, done chan struct{}) {
	select {
	case <-ctx.Done():
	case <-done:
	}
}
