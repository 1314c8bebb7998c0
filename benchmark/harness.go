package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload is one set of inputs plus the closed loop that drives the
// program over them. All four workloads are closed loop: each caller (a
// batch driver, an analyst's script) waits for its reply before it sends
// the next request.
type workload interface {
	// generate builds the inputs for a seed. Never timed.
	generate(seed int64) error
	// setUp does the program's work from generated inputs to the first
	// timed op: pivot or load, worker and server start, and the warm-up ops
	// that fill caches and fix the reference row counts. Timed as setup_s.
	setUp() error
	// tearDown stops everything setUp started and waits for it.
	tearDown()
	// releaseInputs drops generated inputs that no later step reads, so the
	// garbage collector does not mark them during the measured ops.
	releaseInputs()
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// op runs the i-th operation of a client and returns the rows it
	// accounts for. A non-nil error counts the op as failed. tr is nil on
	// untraced ops.
	op(client, i int, tr *tracer) (rows int64, err error)
	// verify checks the output bytes against the reference, once per run.
	verify() error
	// layers adds the per-layer metrics of a traced run.
	layers(tr *tracer, run *runStats, m metrics) error
	// tailQuantile is the fixed percentile op.tail_ms reports on this
	// workload, chosen so that a full-length run leaves at least minBeyond
	// samples beyond it; op.tail_beyond is the count.
	tailQuantile() float64
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int
	outDir  string
}

// opSample is one completed operation.
type opSample struct {
	ms     float64
	rows   int64
	traced bool
	failed bool
}

// runStats is what the measured window produced.
type runStats struct {
	samples   []opSample
	wallSec   float64 // start of the window to the last completion
	cpuMs     float64 // process user+sys CPU over the window
	allocMB   float64
	gcCycles  float64
	gcPauseMs float64
	calibMs   []float64
	firstErr  error
}

func (r *runStats) latencies(traced bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.traced == traced {
			out = append(out, s.ms)
		}
	}
	return out
}

// cpuTimeMs is the process's user+system CPU time.
func cpuTimeMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibrate times a fixed pure-Go hash-and-copy loop that touches none of
// the program under test. A reviewer compares it across runs to tell a slow
// machine from a slow program.
func calibrate() float64 {
	src := make([]byte, 1<<20)
	dst := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i * 31)
	}
	t0 := time.Now()
	h := fnv.New64a()
	for rep := 0; rep < 8; rep++ {
		copy(dst, src)
		h.Write(dst)
		src[rep] = byte(h.Sum64())
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// tracedOp picks the ops a traced run traces: a fixed pseudo-random half of
// the op indices. A plain alternation would alias with serve_mix's block of
// 20 requests and never trace some request kinds.
func tracedOp(i int) bool { return (uint32(i)*2654435761)>>16&1 == 1 }

// measure drives the workload's closed loops for cfg.seconds. In a traced
// run half the ops are traced and half are not, so the two populations share
// one process, one heap and one stretch of machine time.
func measure(w workload, cfg runConfig, tr *tracer) *runStats {
	run := &runStats{}
	for i := 0; i < 5; i++ {
		run.calibMs = append(run.calibMs, calibrate())
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTimeMs()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))

	n := w.clients()
	perClient := make([][]opSample, n)
	lastDone := make([]time.Time, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				var opTr *tracer
				if tracedOp(i) {
					opTr = tr
				}
				rows, err := w.op(c, i, opTr)
				lastDone[c] = time.Now()
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
				perClient[c] = append(perClient[c], opSample{
					ms:     float64(lastDone[c].Sub(t0).Nanoseconds()) / 1e6,
					rows:   rows,
					traced: opTr != nil,
					failed: err != nil,
				})
			}
		}(c)
	}
	wg.Wait()

	// A rate is whole ops over the time to the last completion: the window
	// is never cut mid-op.
	end := start
	for _, t := range lastDone {
		if t.After(end) {
			end = t
		}
	}
	run.wallSec = end.Sub(start).Seconds()
	run.cpuMs = cpuTimeMs() - cpu0
	runtime.ReadMemStats(&after)
	run.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	run.gcCycles = float64(after.NumGC - before.NumGC)
	run.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	for c := range perClient {
		run.samples = append(run.samples, perClient[c]...)
		if run.firstErr == nil {
			run.firstErr = errs[c]
		}
	}
	return run
}

// runWorkload is one benchmark run: generate, set up cfg.setups times,
// measure, verify, and (traced) take the per-layer numbers.
func runWorkload(name string, w workload, cfg runConfig) (result, error) {
	if err := w.generate(cfg.seed); err != nil {
		return result{}, fmt.Errorf("generate: %w", err)
	}
	// Every set-up rebuilds the whole state from the generated inputs; the
	// median of the samples is what a single set-up costs.
	var setupSec []float64
	for k := 0; k < cfg.setups; k++ {
		if k > 0 {
			w.tearDown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	w.releaseInputs()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	run := measure(w, cfg, tr)

	res := result{Attempted: len(run.samples), Metrics: metrics{}}
	var rows int64
	for _, s := range run.samples {
		rows += s.rows
		if s.failed {
			res.Failed++
		}
	}
	if run.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", name, run.firstErr)
	}
	verifyErr := w.verify()
	if verifyErr != nil {
		fmt.Fprintf(os.Stderr, "%s: verify: %v\n", name, verifyErr)
	}
	res.Correct = res.Failed == 0 && verifyErr == nil && res.Attempted > 0
	if res.Attempted == 0 {
		return res, fmt.Errorf("no op completed in %.1f s", cfg.seconds)
	}

	ops := float64(res.Attempted)
	m := res.Metrics
	// Printed on every run, so that an odd end-to-end number can be read
	// against the machine's state without a second, traced run.
	fmt.Fprintf(os.Stderr, "%s: host calib %.2f ms, %.2f GC cycles/op, %.2f ms GC pause/op, peak RSS %.0f MB\n",
		name, median(run.calibMs), run.gcCycles/ops, run.gcPauseMs/ops, peakRSSMB())
	if !cfg.trace {
		m.set("setup_s", median(setupSec), "s")
		m.set("rows_per_s", float64(rows)/run.wallSec, "rows/s")
		m.set("op_p50_ms", median(run.latencies(false)), "ms")
		m.set("cpu_ms_per_op", run.cpuMs/ops, "ms")
		m.set("alloc_mb_per_op", run.allocMB/ops, "MB")
		return res, nil
	}

	for name, unit := range perLayerUnits {
		m.set(name, 0, unit)
	}
	if err := w.layers(tr, run, m); err != nil {
		return res, fmt.Errorf("layers: %w", err)
	}
	untraced := run.latencies(false)
	if len(untraced) > 0 {
		m.set("obs.trace_overhead_frac", median(run.latencies(true))/median(untraced)-1, "ratio")
	}
	// The tail is read off every op of the run, traced or not: half of them
	// would leave too few samples beyond it.
	all := make([]float64, len(run.samples))
	for i, s := range run.samples {
		all[i] = s.ms
	}
	tail, beyond := percentile(all, w.tailQuantile())
	m.set("op.tail_ms", tail, "ms")
	m.set("op.tail_beyond", float64(beyond), "count")
	calib := sortedCopy(run.calibMs)
	m.set("host.calib_ms", median(calib), "ms")
	m.set("host.calib_spread", (calib[len(calib)-1]-calib[0])/median(calib), "ratio")
	m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	m.set("host.peak_rss_mb", peakRSSMB(), "MB")
	m.set("host.gc_cycles_per_op", run.gcCycles/ops, "count")
	m.set("host.gc_pause_ms_per_op", run.gcPauseMs/ops, "ms")
	if err := tr.write(cfg.outDir + "/trace.json"); err != nil {
		return res, err
	}
	return res, nil
}
