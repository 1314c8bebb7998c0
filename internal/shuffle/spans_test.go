package shuffle

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"scrubjay/internal/obs"
)

// sampleSubtrees builds representative span subtrees: nested children,
// attrs of every supported JSON-stable type, and events.
func sampleSubtrees() []*obs.SpanRecord {
	return []*obs.SpanRecord{
		{ID: 0, Kind: "worker-shuffle", Name: "heat#1",
			StartMicros: 10, DurationMicros: 500,
			Attrs: map[string]any{"worker": "w1", "put_bytes": int64(4096), "ok": true},
			Children: []*obs.SpanRecord{
				{ID: 1, Kind: "worker-put", Name: "dst0", StartMicros: 20, DurationMicros: 5},
				{ID: 2, Kind: "worker-fetch", Name: "dst0", StartMicros: 100, DurationMicros: 50,
					Events: []obs.SpanEvent{{Kind: "merge", AtMicros: 120, Text: "3 chunks"}},
					Children: []*obs.SpanRecord{
						{ID: 3, Kind: "worker-merge", Name: "dst0", StartMicros: 110, DurationMicros: 30},
					}},
			}},
		{ID: 0, Kind: "worker-shuffle", Name: "empty#2"},
	}
}

// TestSpanSubtreeCodecRoundTrip is the property test for the spans-payload
// wire codec: encode/decode is the identity on valid subtree sets of any
// size, and the decoder consumes exactly the encoded bytes.
func TestSpanSubtreeCodecRoundTrip(t *testing.T) {
	samples := sampleSubtrees()
	for count := 0; count <= len(samples); count++ {
		recs := samples[:count]
		buf, err := AppendSpanSubtrees([]byte("prefix"), recs)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeSpanSubtrees(buf[len("prefix"):])
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		if n != len(buf)-len("prefix") {
			t.Fatalf("count %d: consumed %d of %d bytes", count, n, len(buf)-len("prefix"))
		}
		if len(got) != count {
			t.Fatalf("count %d: decoded %d subtrees", count, len(got))
		}
		for i, rec := range got {
			if rec.Kind != recs[i].Kind || rec.Name != recs[i].Name ||
				rec.DurationMicros != recs[i].DurationMicros ||
				len(rec.Children) != len(recs[i].Children) ||
				len(rec.Events) != len(recs[i].Events) {
				t.Fatalf("subtree %d did not round-trip: %+v vs %+v", i, rec, recs[i])
			}
		}
	}
}

func TestSpanSubtreeCodecRejectsMalformed(t *testing.T) {
	valid, _ := AppendSpanSubtrees(nil, sampleSubtrees())
	cases := map[string][]byte{
		"empty":           {},
		"wrong marker":    {0x00, 0x01},
		"truncated count": {spanMarker},
		"huge count":      {spanMarker, 0xff, 0xff, 0xff, 0x7f},
		"truncated body":  valid[:len(valid)-3],
		"bad json":        {spanMarker, 0x01, 0x02, '{', 'x'},
		// Schema-invalid subtree: duplicate ids within one record.
		"dup ids": func() []byte {
			b, _ := AppendSpanSubtrees(nil, []*obs.SpanRecord{{
				ID: 1, Kind: "a",
				Children: []*obs.SpanRecord{{ID: 1, Kind: "b"}},
			}})
			return b
		}(),
		"no kind": func() []byte {
			b, _ := AppendSpanSubtrees(nil, []*obs.SpanRecord{{ID: 0}})
			return b
		}(),
	}
	for name, b := range cases {
		if _, _, err := DecodeSpanSubtrees(b); err == nil {
			t.Errorf("%s: decoder accepted %v", name, b)
		}
	}
}

// TestWorkerRecordsAndShipsSpans drives a traced exchange against a live
// server: traced puts and a traced fetch, then the spans op, asserting the
// shipped subtree's shape — and that shipping clears the worker state.
func TestWorkerRecordsAndShipsSpans(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()
	tc := TraceCtx{TraceID: "t42", ParentSpan: 7}

	var chunks []Chunk
	for src := 0; src < 3; src++ {
		chunks = append(chunks, Chunk{Dst: 0, Src: src, Seq: 0, Payload: []byte("abcd")})
	}
	if err := c.PutAll(ctx, "sh#9", chunks, tc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchTraced(ctx, "sh#9", 0, tc); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Spans(ctx, "sh#9", "t42")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("shipped %d subtrees, want 1", len(recs))
	}
	root := recs[0]
	if root.Kind != "worker-shuffle" || root.Name != "sh#9" {
		t.Fatalf("root = %s %q", root.Kind, root.Name)
	}
	if got, _ := root.Attrs[obs.AttrWorker].(string); got != "w-test" {
		t.Fatalf("worker attr = %q", got)
	}
	if root.AttrInt(obs.AttrParentSpan) != 7 {
		t.Fatalf("parent_span = %d, want 7", root.AttrInt(obs.AttrParentSpan))
	}
	if root.AttrInt("put_chunks") != 3 || root.AttrInt("put_bytes") != 12 {
		t.Fatalf("put totals = %d chunks / %d bytes, want 3/12",
			root.AttrInt("put_chunks"), root.AttrInt("put_bytes"))
	}
	if puts := root.FindAll("worker-put"); len(puts) != 3 {
		t.Fatalf("recorded %d put spans, want 3", len(puts))
	}
	fetch := root.Find("worker-fetch")
	if fetch == nil {
		t.Fatal("no worker-fetch span")
	}
	if fetch.AttrInt("chunks") != 3 || fetch.AttrInt("bytes") != 12 {
		t.Fatalf("fetch attrs: chunks=%d bytes=%d, want 3/12",
			fetch.AttrInt("chunks"), fetch.AttrInt("bytes"))
	}
	if fetch.Find("worker-merge") == nil {
		t.Fatal("fetch span has no merge child")
	}

	// Shipping cleared the state: a second collection is empty.
	recs, err = c.Spans(ctx, "sh#9", "t42")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("second collection returned %d subtrees, want 0", len(recs))
	}
}

func TestDropClearsRecordedSpans(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()
	tc := TraceCtx{TraceID: "t43", ParentSpan: 1}
	if err := c.PutAll(ctx, "sh#10", []Chunk{{Payload: []byte("x")}}, tc); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop(ctx, "sh#10"); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Spans(ctx, "sh#10", "t43")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("drop left %d recorded subtrees", len(recs))
	}
}

// TestUntracedOpsRecordNothing: operations with an empty trace context
// must not create worker-side trace state.
func TestUntracedOpsRecordNothing(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()
	if err := c.Put(ctx, "sh#11", 0, 0, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(ctx, "sh#11", 0); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	n := len(srv.traces)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("untraced ops created %d trace entries", n)
	}
}

// TestLiveTraceCapBoundsState: past liveTraceCap concurrent traced
// shuffles, new ones record nothing instead of growing without bound.
func TestLiveTraceCapBoundsState(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()
	for i := 0; i < liveTraceCap+5; i++ {
		tc := TraceCtx{TraceID: fmt.Sprintf("t%d", i), ParentSpan: 1}
		if err := c.PutAll(ctx, fmt.Sprintf("sh#%d", i), []Chunk{{Payload: []byte("x")}}, tc); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	n := len(srv.traces)
	srv.mu.Unlock()
	if n != liveTraceCap {
		t.Fatalf("trace state holds %d entries, cap is %d", n, liveTraceCap)
	}
	// An over-cap shuffle shipped nothing.
	recs, err := c.Spans(ctx, fmt.Sprintf("sh#%d", liveTraceCap+1), fmt.Sprintf("t%d", liveTraceCap+1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("over-cap shuffle recorded %d subtrees", len(recs))
	}
}

// TestProtocolVersionRefusal: the handshake is negotiate-or-refuse. A
// worker answers a hello without a version byte, or with a version other
// than ProtoVersion, with an error naming both versions; Dial rejects a
// worker that answers with any version but ProtoVersion.
func TestProtocolVersionRefusal(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		name  string
		hello []byte
		got   string
	}{
		{"no version byte", appendString([]byte{opHello}, "old-driver"), "version none"},
		{"version 1", append(appendString([]byte{opHello}, "old-driver"), 1), "version 1"},
	} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeMessage(nc, tc.hello); err != nil {
			t.Fatal(err)
		}
		body, err := readMessage(nc, DefaultMaxMessage)
		nc.Close()
		if err != nil {
			t.Fatal(err)
		}
		_, err = parseResponse(body)
		want := fmt.Sprintf("%s not supported, worker speaks %d", tc.got, ProtoVersion)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: hello answered %v, want an error containing %q", tc.name, err, want)
		}
	}

	// A stub worker that answers every hello with version 1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readMessage(conn, DefaultMaxMessage); err != nil {
			return
		}
		writeMessage(conn, append(appendString([]byte{statusOK}, "v1-worker"), 1))
	}()
	c, err := Dial(context.Background(), ln.Addr().String(), "driver", 2*time.Second)
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a worker answering protocol 1")
	}
	want := fmt.Sprintf("speaks protocol 1, driver speaks %d", ProtoVersion)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Dial error %q, want it to contain %q", err, want)
	}
}
