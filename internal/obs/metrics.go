package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-wide metrics registry: named counters, gauges,
// gauge functions, and histograms, rendered as sorted key=value text
// (the GET /metrics format). Get-or-create accessors make registration
// idempotent; all instruments are safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	gaugeFns  map[string]func() int64
	hists     map[string]*Histogram
	histUnits map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		gaugeFns:  make(map[string]func() int64),
		hists:     make(map[string]*Histogram),
		histUnits: make(map[string]string),
	}
}

// Counter returns the named monotonic counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named settable gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge computed at render time — the natural shape
// for values another component already owns (queue depths, cache sizes).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use. unit
// suffixes the rendered quantile keys: Histogram("latency", "micros")
// renders latency_count, latency_p50_micros, latency_p90_micros, and
// latency_p99_micros.
func (r *Registry) Histogram(name, unit string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
		r.histUnits[name] = unit
	}
	return h
}

// Render produces sorted key=value lines for every instrument. Gauge
// functions run outside the registry lock.
func (r *Registry) Render() string {
	kv := map[string]int64{}
	r.mu.Lock()
	for name, c := range r.counters {
		kv[name] = c.Load()
	}
	for name, g := range r.gauges {
		kv[name] = g.Load()
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		fns[name] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	units := make(map[string]string, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
		units[name] = r.histUnits[name]
	}
	r.mu.Unlock()
	for name, fn := range fns {
		kv[name] = fn()
	}
	for name, h := range hists {
		suffix := ""
		if u := units[name]; u != "" {
			suffix = "_" + u
		}
		kv[name+"_count"] = h.Count()
		kv[name+"_p50"+suffix] = h.Quantile(0.50)
		kv[name+"_p90"+suffix] = h.Quantile(0.90)
		kv[name+"_p99"+suffix] = h.Quantile(0.99)
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, kv[k])
	}
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load reads the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a bounded power-of-two-bucketed histogram over non-negative
// int64 observations: observation v lands in bucket bits(v), so quantiles
// resolve to within a factor of two — plenty for latency and size signals,
// with O(1) observe and no allocation. 48 buckets cover the full useful
// range of microsecond latencies and byte/row sizes.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	max     int64
	buckets [48]int64
}

// Observe records one value. Negative values clamp to zero; values beyond
// the last bucket clamp into it.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := 0
	for x := v; x > 0; x >>= 1 {
		b++
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.mu.Lock()
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[b]++
	h.mu.Unlock()
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// Quantile returns an upper bound for the q-quantile, q in (0,1]: the
// ceiling of the bucket holding that rank, clamped to the largest
// observation so no quantile exceeds Max. Zero observations yield zero.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	b := len(h.buckets) - 1
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			b = i
			break
		}
	}
	return min(int64(1)<<b, h.max)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}
