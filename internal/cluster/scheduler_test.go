package cluster

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"scrubjay/internal/obs"
	"scrubjay/internal/shuffle"
)

// testCluster spins up n in-process shuffle servers and a registry over
// them, returning the scheduler and the servers (indexed by registration
// order) for fault injection.
func testCluster(t *testing.T, n int, opts Options) (*Scheduler, []*shuffle.Server) {
	t.Helper()
	servers := make([]*shuffle.Server, n)
	reg := NewRegistry("driver-test", 2*time.Second, 2)
	t.Cleanup(reg.Close)
	for i := range servers {
		srv, err := shuffle.Serve("127.0.0.1:0", fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
		if _, err := reg.Register(context.Background(), srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return NewScheduler(reg, opts), servers
}

// testEnc builds a deterministic enc[src][dst] payload matrix.
func testEnc(srcs, dsts int) [][][]byte {
	enc := make([][][]byte, srcs)
	for s := range enc {
		enc[s] = make([][]byte, dsts)
		for d := range enc[s] {
			enc[s][d] = []byte(fmt.Sprintf("<s%d-d%d>", s, d))
		}
	}
	return enc
}

// wantMerged is the contract: payloads concatenated in ascending src order.
func wantMerged(srcs, d int) string {
	var b strings.Builder
	for s := 0; s < srcs; s++ {
		fmt.Fprintf(&b, "<s%d-d%d>", s, d)
	}
	return b.String()
}

func TestExchangeMergeOrder(t *testing.T) {
	sched, _ := testCluster(t, 2, Options{})
	const srcs, dsts = 5, 7
	out, err := sched.Exchange(context.Background(), "stage-a", dsts, testEnc(srcs, dsts))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dsts; d++ {
		if got, want := string(out[d]), wantMerged(srcs, d); got != want {
			t.Fatalf("dst %d: %q, want %q", d, got, want)
		}
	}
}

// TestExchangeChunking forces multi-chunk puts and checks the (src, seq)
// merge survives chunk boundaries.
func TestExchangeChunking(t *testing.T) {
	sched, _ := testCluster(t, 2, Options{ChunkBytes: 3})
	enc := [][][]byte{
		{[]byte("aaaaaaaaaa")}, // src 0 → dst 0: 4 chunks
		{[]byte("bbbbb")},      // src 1 → dst 0: 2 chunks
	}
	out, err := sched.Exchange(context.Background(), "stage-chunk", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out[0]); got != "aaaaaaaaaabbbbb" {
		t.Fatalf("merged %q", got)
	}
}

func TestExchangeEmptyBuckets(t *testing.T) {
	sched, _ := testCluster(t, 2, Options{})
	enc := [][][]byte{
		{nil, []byte("x")},
		{nil, nil},
	}
	out, err := sched.Exchange(context.Background(), "stage-empty", 2, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 0 || string(out[1]) != "x" {
		t.Fatalf("got %q / %q", out[0], out[1])
	}
}

// TestWorkerDeathBetweenPhases kills one worker at the push/fetch barrier —
// the deterministic injection point PhaseHook exists for — and requires the
// exchange to retry onto the survivor and still produce the exact merge.
func TestWorkerDeathBetweenPhases(t *testing.T) {
	var sched *Scheduler
	var servers []*shuffle.Server
	killed := false
	metrics := obs.NewRegistry()
	sched, servers = testCluster(t, 2, Options{
		StragglerAfter: -1, // isolate the retry path
		Metrics:        metrics,
		PhaseHook: func(phase, stage string) {
			if phase == "barrier" && !killed {
				killed = true
				servers[0].Close()
				sched.Registry().MarkFailed(sched.Registry().Workers()[0])
			}
		},
	})
	const srcs, dsts = 3, 4
	out, err := sched.Exchange(context.Background(), "stage-kill", dsts, testEnc(srcs, dsts))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dsts; d++ {
		if got, want := string(out[d]), wantMerged(srcs, d); got != want {
			t.Fatalf("dst %d after worker death: %q, want %q", d, got, want)
		}
	}
	if !killed {
		t.Fatal("phase hook never fired")
	}
}

// TestWorkerDeathDetectedByFetch is the harder variant: the worker dies at
// the barrier but is NOT pre-marked — the fetch itself must discover the
// failure, mark the worker, re-push to a survivor, and recover.
func TestWorkerDeathDetectedByFetch(t *testing.T) {
	var servers []*shuffle.Server
	killed := false
	var sched *Scheduler
	sched, servers = testCluster(t, 2, Options{
		StragglerAfter: -1,
		PhaseHook: func(phase, stage string) {
			if phase == "barrier" && !killed {
				killed = true
				servers[1].Close()
			}
		},
	})
	const srcs, dsts = 2, 2
	out, err := sched.Exchange(context.Background(), "stage-kill2", dsts, testEnc(srcs, dsts))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dsts; d++ {
		if got, want := string(out[d]), wantMerged(srcs, d); got != want {
			t.Fatalf("dst %d: %q, want %q", d, got, want)
		}
	}
	live := sched.Registry().Live()
	if len(live) != 1 || live[0].ID() != "w0" {
		t.Fatalf("expected only w0 live, got %d workers", len(live))
	}
}

func TestAllWorkersDead(t *testing.T) {
	sched, servers := testCluster(t, 2, Options{StragglerAfter: -1})
	for _, srv := range servers {
		srv.Close()
	}
	for _, w := range sched.Registry().Workers() {
		sched.Registry().MarkFailed(w)
	}
	_, err := sched.Exchange(context.Background(), "stage-dead", 1, testEnc(1, 1))
	if err == nil {
		t.Fatal("exchange with no live workers succeeded")
	}
}

func TestExchangeCancellation(t *testing.T) {
	sched, _ := testCluster(t, 1, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sched.Exchange(ctx, "stage-cancel", 2, testEnc(2, 2))
	if err == nil {
		t.Fatal("cancelled exchange succeeded")
	}
}

// TestHeartbeatMarksDeadWorker verifies the registry prober notices a dead
// worker and removes it from scheduling without any exchange traffic.
func TestHeartbeatMarksDeadWorker(t *testing.T) {
	sched, servers := testCluster(t, 2, Options{})
	reg := sched.Registry()
	reg.StartHeartbeat(20*time.Millisecond, 2)
	defer reg.StopHeartbeat()
	servers[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(reg.Live()) == 1 {
			if reg.Live()[0].ID() != "w0" {
				t.Fatalf("wrong survivor %s", reg.Live()[0].ID())
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("heartbeat never marked the dead worker")
}

// TestLargePayloadRoundTrip pushes a payload spanning many chunks through a
// real exchange and checks byte equality end to end.
func TestLargePayloadRoundTrip(t *testing.T) {
	sched, _ := testCluster(t, 2, Options{ChunkBytes: 64 << 10})
	big := bytes.Repeat([]byte("0123456789abcdef"), 64<<10) // 1 MiB
	enc := [][][]byte{{big}}
	out, err := sched.Exchange(context.Background(), "stage-big", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], big) {
		t.Fatalf("large payload corrupted: %d bytes, want %d", len(out[0]), len(big))
	}
}

// TestTracedExchangeGraftsWorkerSpans runs a traced exchange over live TCP
// workers: the exchange span rides the wire, both workers record their
// side, and the scheduler grafts each shipped subtree back under the
// exchange span with correct parentage, worker attrs, and unique ids.
func TestTracedExchangeGraftsWorkerSpans(t *testing.T) {
	sched, _ := testCluster(t, 2, Options{})
	tr := obs.NewTracer("trace-graft", nil)
	root := tr.Start(obs.KindQuery, "q")
	ex := root.Child(obs.KindStage, "stage-g|shuffle-fetch")
	ctx := obs.ContextWithSpan(context.Background(), ex)

	const srcs, dsts = 2, 3
	out, err := sched.Exchange(ctx, "stage-g", dsts, testEnc(srcs, dsts))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dsts; d++ {
		if got, want := string(out[d]), wantMerged(srcs, d); got != want {
			t.Fatalf("dst %d: %q, want %q", d, got, want)
		}
	}
	ex.End()
	root.End()

	a := tr.Artifact()
	if err := a.Check(); err != nil {
		t.Fatalf("merged artifact failed Check: %v", err)
	}
	// Both workers own destinations (3 dsts over 2 workers), so both
	// shipped a subtree, and every subtree grafts directly under ex.
	exRec := a.Root.Find(obs.KindStage)
	subs := exRec.FindAll("worker-shuffle")
	if len(subs) != 2 {
		t.Fatalf("grafted %d worker subtrees under the exchange span, want 2", len(subs))
	}
	origins := map[string]bool{}
	for _, sub := range subs {
		origin, _ := sub.Attrs[obs.AttrOrigin].(string)
		if !strings.HasPrefix(origin, "worker@") {
			t.Fatalf("subtree origin = %q", origin)
		}
		origins[origin] = true
		if got := sub.AttrInt(obs.AttrParentSpan); got != int64(ex.ID()) {
			t.Fatalf("subtree parent_span = %d, want exchange span %d", got, ex.ID())
		}
		if sub.Find("worker-put") == nil || sub.Find("worker-fetch") == nil {
			t.Fatalf("subtree missing put/fetch spans: %+v", sub)
		}
		for _, p := range sub.FindAll("worker-put") {
			if p.Attrs[obs.AttrOrigin] != sub.Attrs[obs.AttrOrigin] {
				t.Fatal("descendant origin differs from subtree origin")
			}
		}
	}
	if len(origins) != 2 {
		t.Fatalf("expected 2 distinct worker origins, got %v", origins)
	}
}

// TestHeartbeatSnapshotAndGauges: a probe stores each worker's v2 metrics
// snapshot, and the cluster_worker_* gauges aggregate it on render.
func TestHeartbeatSnapshotAndGauges(t *testing.T) {
	met := obs.NewRegistry()
	sched, _ := testCluster(t, 2, Options{Metrics: met})
	if _, err := sched.Exchange(context.Background(), "stage-hb", 2, testEnc(2, 2)); err != nil {
		t.Fatal(err)
	}
	reg := sched.Registry()
	reg.probe(3)
	var fetches int64
	for _, w := range reg.Live() {
		st := w.Stats()
		if st.Goroutines == 0 || st.HeapBytes == 0 {
			t.Fatalf("worker %s snapshot missing runtime stats: %+v", w.ID(), st)
		}
		fetches += st.Fetches
	}
	if fetches == 0 {
		t.Fatal("no worker reported fetches after an exchange")
	}
	out := met.Render()
	if !strings.Contains(out, "cluster_workers_live=2\n") {
		t.Fatalf("metrics missing live-worker gauge:\n%s", out)
	}
	for _, key := range []string{"cluster_worker_goroutines=", "cluster_worker_heap_bytes=", "cluster_worker_fetches="} {
		if !strings.Contains(out, key) || strings.Contains(out, key+"0\n") {
			t.Fatalf("gauge %s absent or zero:\n%s", key, out)
		}
	}
}

// TestSteadyStateExchangesOpenNoConnections: the pool is dialed once, so
// after a warm-up exchange, twenty more exchanges of 8 destinations over 2
// workers make the workers accept no new connection.
func TestSteadyStateExchangesOpenNoConnections(t *testing.T) {
	sched, servers := testCluster(t, 2, Options{})
	const srcs, dsts = 8, 8
	enc := testEnc(srcs, dsts)
	accepted := func() int64 {
		var n int64
		for _, srv := range servers {
			n += srv.Accepted()
		}
		return n
	}
	if _, err := sched.Exchange(context.Background(), "warm-up", dsts, enc); err != nil {
		t.Fatal(err)
	}
	before := accepted()
	for i := 0; i < 20; i++ {
		out, err := sched.Exchange(context.Background(), fmt.Sprintf("steady-%d", i), dsts, enc)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < dsts; d++ {
			if got, want := string(out[d]), wantMerged(srcs, d); got != want {
				t.Fatalf("exchange %d dst %d: %q, want %q", i, d, got, want)
			}
		}
	}
	if after := accepted(); after != before {
		t.Fatalf("20 steady-state exchanges opened %d new connections, want 0", after-before)
	}
}

// patterned returns n bytes that differ from position to position and from
// source to source, so any reordered or dropped chunk changes the merge.
func patterned(src, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + src*131 + i/251)
	}
	return b
}

// TestPipelinedBurstManyChunks pushes 10 000 three-byte chunks to one
// destination. The acks of a pipelined burst queue up unread while the
// driver writes, so an unbounded burst could fill both socket buffers and
// stall until the op deadline; the exchange must instead finish with no
// retry (no round trip timed out) and merge in (src, seq) order.
func TestPipelinedBurstManyChunks(t *testing.T) {
	met := obs.NewRegistry()
	sched, _ := testCluster(t, 2, Options{ChunkBytes: 3, StragglerAfter: -1, Metrics: met})
	enc := [][][]byte{{patterned(0, 15000)}, {patterned(1, 15000)}}
	out, err := sched.Exchange(context.Background(), "stage-burst", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	want := append(patterned(0, 15000), patterned(1, 15000)...)
	if !bytes.Equal(out[0], want) {
		t.Fatalf("merged %d bytes differ from the (src, seq) concatenation of %d", len(out[0]), len(want))
	}
	if n := met.Counter("cluster_task_retries_total").Load(); n != 0 {
		t.Fatalf("burst needed %d retries", n)
	}
}

// TestWorkerClosedMidBurst closes the destination's owner while its
// pipelined burst is being stored: the push fails, re-executes on the
// survivor, and the merge is still bit-for-bit.
func TestWorkerClosedMidBurst(t *testing.T) {
	const total = 30000 // bytes per source, pushed as 3-byte chunks
	var servers []*shuffle.Server
	var storedAtClose int64
	closed := make(chan struct{})
	met := obs.NewRegistry()
	hook := func(phase, stage string) {
		switch phase {
		case "push":
			go func() {
				defer close(closed)
				for {
					if stored, _ := servers[0].Stats(); stored > 0 {
						storedAtClose = stored
						servers[0].Close()
						return
					}
					runtime.Gosched()
				}
			}()
		case "barrier":
			<-closed
		}
	}
	sched, srvs := testCluster(t, 2, Options{ChunkBytes: 3, StragglerAfter: -1, Metrics: met, PhaseHook: hook})
	servers = srvs
	enc := [][][]byte{{patterned(0, total)}, {patterned(1, total)}}
	out, err := sched.Exchange(context.Background(), "stage-midburst", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	if storedAtClose >= 2*total {
		t.Fatalf("owner closed after storing all %d bytes: not mid-burst", storedAtClose)
	}
	want := append(patterned(0, total), patterned(1, total)...)
	if !bytes.Equal(out[0], want) {
		t.Fatalf("merged %d bytes differ from the (src, seq) concatenation of %d", len(out[0]), len(want))
	}
	if live := sched.Registry().Live(); len(live) != 1 || live[0].ID() != "w1" {
		t.Fatalf("want only w1 live after the owner died, have %d", len(live))
	}
	if met.Counter("cluster_task_retries_total").Load() == 0 {
		t.Fatal("the failed push was not retried")
	}
}
