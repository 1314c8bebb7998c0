package shuffle

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", "w-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func testDial(t *testing.T, srv *Server) *Conn {
	t.Helper()
	c, err := Dial(context.Background(), srv.Addr(), "driver-test", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerHello(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	if c.WorkerID() != "w-test" {
		t.Fatalf("worker id %q, want w-test", c.WorkerID())
	}
}

// TestPutFetchMergeOrder pins the deterministic merge: chunks arrive out of
// order across sources and sequences, and fetch returns them concatenated
// in ascending (src, seq) order.
func TestPutFetchMergeOrder(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()

	puts := []struct {
		src, seq int
		payload  string
	}{
		{src: 1, seq: 1, payload: "D"},
		{src: 0, seq: 0, payload: "A"},
		{src: 1, seq: 0, payload: "C"},
		{src: 0, seq: 1, payload: "B"},
		{src: 2, seq: 0, payload: "E"},
	}
	for _, p := range puts {
		if err := c.Put(ctx, "sh#1", 3, p.src, p.seq, []byte(p.payload)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Fetch(ctx, "sh#1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ABCDE" {
		t.Fatalf("merged payload %q, want ABCDE", got)
	}

	// Re-pushing a chunk (a retry) is idempotent: same merge, no growth.
	if err := c.Put(ctx, "sh#1", 3, 0, 0, []byte("A")); err != nil {
		t.Fatal(err)
	}
	got, err = c.Fetch(ctx, "sh#1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ABCDE" {
		t.Fatalf("after idempotent re-put: %q, want ABCDE", got)
	}
}

func TestFetchUnknownIsEmpty(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	got, err := c.Fetch(context.Background(), "nope", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unknown shuffle returned %d bytes", len(got))
	}
}

func TestDropFreesState(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()
	if err := c.Put(ctx, "sh#2", 0, 0, 0, bytes.Repeat([]byte("x"), 1024)); err != nil {
		t.Fatal(err)
	}
	if stored, n := srv.Stats(); stored != 1024 || n != 1 {
		t.Fatalf("stats before drop: %d bytes, %d shuffles", stored, n)
	}
	if err := c.Drop(ctx, "sh#2"); err != nil {
		t.Fatal(err)
	}
	if stored, n := srv.Stats(); stored != 0 || n != 0 {
		t.Fatalf("stats after drop: %d bytes, %d shuffles", stored, n)
	}
}

func TestPing(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()
	if err := c.Put(ctx, "sh#3", 1, 0, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Ping(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredBytes != 5 || st.Shuffles != 1 {
		t.Fatalf("ping reported %d bytes, %d shuffles", st.StoredBytes, st.Shuffles)
	}
	// The ping carries the runtime metrics snapshot.
	if st.Goroutines == 0 || st.HeapBytes == 0 {
		t.Fatalf("ping snapshot missing runtime stats: %+v", st)
	}
	if _, err := c.Fetch(ctx, "sh#3", 1); err != nil {
		t.Fatal(err)
	}
	st, err = c.Ping(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetches != 1 {
		t.Fatalf("ping reported %d fetches after one fetch", st.Fetches)
	}
}

// TestOpTimeout verifies a dead peer surfaces as an error instead of a
// wedged connection: the deadline covers the whole round trip.
func TestOpTimeout(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	srv.Close() // worker dies after handshake
	err := c.Put(context.Background(), "sh#4", 0, 0, 0, []byte("x"))
	if err == nil {
		t.Fatal("put to a dead worker succeeded")
	}
}

func TestServeAfterBadRequest(t *testing.T) {
	srv := testServer(t)
	c := testDial(t, srv)
	ctx := context.Background()
	// An unknown opcode errors but keeps the connection serviceable.
	if _, err := c.roundTrip(ctx, []byte{0x7f}); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("connection unusable after app-level error: %v", err)
	}
}
