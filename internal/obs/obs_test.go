package obs

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func buildTrace(clock Clock) *Tracer {
	tr := NewTracer("t-test", clock)
	root := tr.Start(KindQuery, "q")
	root.SetStr(AttrPlanHash, "abc123")
	search := root.Child(KindSearch, "plan-search")
	search.SetBool(AttrCacheHit, false)
	search.Event("closure", "closure of \"jobs\": 3 variants", nil)
	search.End()
	exec := root.Child(KindExec, "execute")
	step := exec.Child(KindStep, "natural_join")
	stage := step.Child(KindStage, "jobs|collect")
	stage.SetInt(AttrPartitions, 2)
	stage.SetInt(AttrRowsOut, 10)
	for p := 0; p < 2; p++ {
		task := stage.ChildAt(KindTask, "", stage.Start())
		task.SetInt(AttrPartition, int64(p))
		task.SetInt(AttrRowsOut, 5)
		task.EndAt(task.Start())
	}
	stage.End()
	step.End()
	exec.End()
	root.End()
	return tr
}

func TestArtifactRoundTrip(t *testing.T) {
	tr := buildTrace(StepClock(time.Millisecond))
	art := tr.Artifact()
	if err := art.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := art.SpanCount(); got != 7 {
		t.Errorf("SpanCount = %d, want 7", got)
	}
	enc1, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(enc1)
	if err != nil {
		t.Fatalf("DecodeArtifact: %v", err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("artifact does not round-trip byte-identically:\n%s\nvs\n%s", enc1, enc2)
	}
	if back.Root.Kind != KindQuery {
		t.Errorf("root kind = %q", back.Root.Kind)
	}
	stage := back.Root.Find(KindStage)
	if stage == nil || stage.AttrInt(AttrRowsOut) != 10 {
		t.Errorf("stage span lost attrs: %+v", stage)
	}
	if tasks := back.Root.FindAll(KindTask); len(tasks) != 2 {
		t.Errorf("task spans = %d, want 2", len(tasks))
	}
}

func TestFrozenClockDeterministicBytes(t *testing.T) {
	enc := func() []byte {
		b, err := buildTrace(FrozenClock()).Artifact().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := enc(), enc(); !bytes.Equal(a, b) {
		t.Errorf("frozen-clock traces differ:\n%s\nvs\n%s", a, b)
	}
}

func TestCheckRejectsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"no trace id": `{"trace_id":"","root":{"id":0,"kind":"query","name":"","start_micros":0,"duration_micros":0}}`,
		"no root":     `{"trace_id":"t"}`,
		"no kind":     `{"trace_id":"t","root":{"id":0,"kind":"","name":"","start_micros":0,"duration_micros":0}}`,
		"dup ids":     `{"trace_id":"t","root":{"id":1,"kind":"query","name":"","start_micros":0,"duration_micros":0,"children":[{"id":1,"kind":"task","name":"","start_micros":0,"duration_micros":0}]}}`,
		"neg time":    `{"trace_id":"t","root":{"id":0,"kind":"query","name":"","start_micros":-1,"duration_micros":0}}`,
	} {
		if _, err := DecodeArtifact([]byte(data)); err == nil {
			t.Errorf("%s: Check accepted malformed artifact", name)
		}
	}
}

func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	child := sp.Child(KindStage, "x")
	if child != nil {
		t.Fatal("nil span produced a non-nil child")
	}
	sp.ChildAt(KindTask, "", 0)
	sp.SetInt(AttrRowsOut, 1)
	sp.SetBool(AttrShuffle, true)
	sp.SetStr(AttrError, "e")
	sp.Event("k", "t", nil)
	sp.End()
	sp.EndAt(time.Second)
	if sp.Clock() != nil || sp.Kind() != "" || sp.Name() != "" || sp.ID() != -1 {
		t.Error("nil span accessors returned non-zero values")
	}
	if sp.Duration() != 0 || sp.Start() != 0 || sp.Children() != nil {
		t.Error("nil span timing accessors returned non-zero values")
	}
	if sp.AttrInt(AttrRowsOut) != 0 || sp.AttrBool(AttrShuffle) {
		t.Error("nil span attr accessors returned non-zero values")
	}
	var tr *Tracer
	if tr.Start(KindQuery, "q") != nil || tr.ID() != "" || tr.Clock() != nil || tr.Root() != nil || tr.Artifact() != nil {
		t.Error("nil tracer methods returned non-zero values")
	}
}

// TestNilSpanZeroAlloc pins the nil-span invariant: the disabled-tracing
// fast path must not allocate.
func TestNilSpanZeroAlloc(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		c := sp.Child(KindStage, "stage")
		c.SetInt(AttrRowsOut, 42)
		c.SetBool(AttrShuffle, true)
		t := c.ChildAt(KindTask, "", 0)
		t.SetInt(AttrPartition, 0)
		t.EndAt(0)
		c.End()
	})
	if allocs != 0 {
		t.Errorf("nil-span path allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkNilSpan(b *testing.B) {
	var sp *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sp.Child(KindStage, "stage")
		c.SetInt(AttrRowsOut, int64(i))
		c.End()
	}
}

func TestSpanDurationOpenSpans(t *testing.T) {
	clock := StepClock(time.Millisecond)
	tr := NewTracer("t", clock)
	root := tr.Start(KindQuery, "q") // start = 0ms
	c := root.Child(KindStage, "s")  // start = 1ms
	c.End()                          // end = 2ms
	// root never ended: its duration must extend to the child's end.
	if got := root.Duration(); got != 2*time.Millisecond {
		t.Errorf("open root duration = %v, want 2ms", got)
	}
}

func TestTraceRing(t *testing.T) {
	if r := NewTraceRing(0); r != nil {
		t.Fatal("capacity 0 should disable the ring")
	}
	var nilRing *TraceRing
	nilRing.Put(&Artifact{TraceID: "x"})
	if _, ok := nilRing.Get("x"); ok || nilRing.Len() != 0 || nilRing.IDs() != nil {
		t.Fatal("nil ring retained a trace")
	}

	r := NewTraceRing(2)
	for _, id := range []string{"a", "b", "c"} {
		r.Put(&Artifact{TraceID: id})
	}
	if _, ok := r.Get("a"); ok {
		t.Error("oldest trace not evicted")
	}
	if _, ok := r.Get("c"); !ok {
		t.Error("newest trace missing")
	}
	if ids := r.IDs(); len(ids) != 2 || ids[0] != "c" || ids[1] != "b" {
		t.Errorf("IDs = %v, want [c b]", ids)
	}
	// Replacing an id must not consume a slot.
	r.Put(&Artifact{TraceID: "c"})
	if r.Len() != 2 {
		t.Errorf("Len = %d after replace, want 2", r.Len())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report 0")
	}
	// 90 fast observations (~1ms) and 10 slow (~1s), in microseconds.
	for i := 0; i < 90; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(time.Second)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	// Buckets are powers of two, so bounds are within 2x of the truth.
	if p50 < 512 || p50 > 4096 {
		t.Errorf("p50 = %dµs, want ≈1024", p50)
	}
	if p99 < 512*1024 || p99 > 4*1024*1024 {
		t.Errorf("p99 = %dµs, want ≈1s", p99)
	}
	if p50 > p99 {
		t.Error("quantiles out of order")
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
	if h.Max() != time.Second.Microseconds() {
		t.Errorf("Max = %d", h.Max())
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(-5)                      // negative clamps to zero
	h.ObserveDuration(400 * time.Hour) // beyond the last bucket clamps
	if h.Quantile(1.0) == 0 {
		t.Error("clamped observation lost")
	}
}

// TestHistogramQuantileProperties: over seeded random observation sets
// spanning many magnitudes, every quantile stays an upper bound on the
// exact rank value yet never exceeds the largest observation, and
// quantiles are non-decreasing in p.
func TestHistogramQuantileProperties(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var h Histogram
		vals := make([]int64, 1+r.Intn(300))
		for i := range vals {
			vals[i] = r.Int63n(int64(1) << uint(1+r.Intn(40)))
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		hi := h.Max()
		prev := int64(0)
		for i := 1; i <= 100; i++ {
			p := float64(i) / 100
			q := h.Quantile(p)
			if q > hi {
				t.Fatalf("seed %d: Quantile(%v) = %d > Max %d", seed, p, q, hi)
			}
			if q < prev {
				t.Fatalf("seed %d: Quantile(%v) = %d < Quantile(%v) = %d", seed, p, q, p-0.01, prev)
			}
			rank := max(int64(p*float64(len(vals))+0.5), 1)
			if exact := vals[rank-1]; q < exact {
				t.Fatalf("seed %d: Quantile(%v) = %d below the exact rank value %d", seed, p, q, exact)
			}
			prev = q
		}
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(3)
	r.Counter("a_total").Inc()
	r.Gauge("depth").Set(7)
	r.GaugeFunc("fn_gauge", func() int64 { return 11 })
	r.Histogram("latency", "micros").ObserveDuration(time.Millisecond)
	got := r.Render()
	want := "a_total=1\n" +
		"b_total=3\n" +
		"depth=7\n" +
		"fn_gauge=11\n" +
		"latency_count=1\n" +
		"latency_p50_micros=1000\n" +
		"latency_p90_micros=1000\n" +
		"latency_p99_micros=1000\n"
	if got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
	// Get-or-create: same instrument back.
	if r.Counter("a_total").Load() != 1 {
		t.Error("Counter not idempotent")
	}
	if r.Histogram("latency", "micros").Count() != 1 {
		t.Error("Histogram not idempotent")
	}
}

func TestTimeline(t *testing.T) {
	art := buildTrace(StepClock(time.Millisecond)).Artifact()
	out := art.Timeline()
	for _, want := range []string{
		"trace t-test: 7 spans",
		"query q",
		"plan-search",
		"execute",
		"step natural_join",
		"stage jobs|collect",
		"rows_out=10",
		"partitions=2",
		"events=1",
		"total=", "self=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Decoded artifacts (float64 attrs) must render identically.
	enc, _ := art.Encode()
	back, err := DecodeArtifact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Timeline() != out {
		t.Errorf("decoded timeline differs:\n%s\nvs\n%s", back.Timeline(), out)
	}
	var empty *Artifact
	if empty.Timeline() != "(empty trace)\n" {
		t.Error("nil artifact timeline")
	}
}

// TestTimelineDerivedActuals covers the renderer's derived columns: byte
// attrs humanized, step lines aggregating shuffle volume from their stage
// descendants, and stages without an own row count summing their tasks'.
func TestTimelineDerivedActuals(t *testing.T) {
	tr := NewTracer("t-derived", StepClock(time.Millisecond))
	root := tr.Start(KindQuery, "q")
	exec := root.Child(KindExec, "execute")
	step := exec.Child(KindStep, "natural_join")
	step.SetInt(AttrEstRows, 40)
	step.SetInt(AttrEstShuffleBytes, 4096)
	write := step.Child(KindStage, "jobs|cogroup-left|exchange-write")
	write.SetInt(AttrShuffleRows, 20)
	write.SetInt(AttrShuffleBytes, 3*1024*1024)
	// No rows_out on the stage itself: derived from the tasks below.
	for p := 0; p < 2; p++ {
		task := write.ChildAt(KindTask, "", write.Start())
		task.SetInt(AttrPartition, int64(p))
		task.SetInt(AttrRowsOut, 10)
		task.EndAt(task.Start())
	}
	write.End()
	read := step.Child(KindStage, "natural_join(jobs,layout)")
	read.SetInt(AttrShuffleRows, 22)
	read.SetInt(AttrShuffleBytes, 512)
	read.SetInt(AttrRowsOut, 40)
	read.End()
	step.End()
	exec.End()
	root.End()

	out := tr.Artifact().Timeline()
	for _, want := range []string{
		"est_rows=40",
		"est_shuffle_bytes=4.0KiB", // humanized estimate on the step
		"shuffled_rows=42",         // 20 + 22 aggregated onto the step line
		"shuffled=3.0MiB",          // (3MiB + 512B) aggregated, humanized
		"shuffle_bytes=3.0MiB",     // the write stage's own attr, humanized
		"shuffle_bytes=512B",
		"rows_out=20", // derived for the write stage from its two tasks
		"rows_out=40", // the read stage's own attr, untouched
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// The derived values must survive an encode/decode round trip (attrs
	// become float64) unchanged.
	enc, _ := tr.Artifact().Encode()
	back, err := DecodeArtifact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Timeline() != out {
		t.Errorf("decoded timeline differs:\n%s\nvs\n%s", back.Timeline(), out)
	}
}
