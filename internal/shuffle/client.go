package shuffle

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"scrubjay/internal/obs"
)

// TraceCtx is the distributed-tracing context one exchange operation
// carries across the wire: the driver's trace id (empty = untraced) and
// the id of the driver-side span that owns the exchange, which becomes the
// cross-process parent of the worker's recorded subtree.
type TraceCtx struct {
	TraceID    string
	ParentSpan int
}

// WorkerStats is the metrics snapshot a ping returns — the compact worker
// health summary the registry heartbeat aggregates into cluster_worker_*
// gauges.
type WorkerStats struct {
	StoredBytes int64
	Shuffles    int
	Goroutines  int
	HeapBytes   int64
	Fetches     int64
	FetchP50us  int64
	FetchP90us  int64
	FetchP99us  int64
}

// Conn is one driver-side connection to a worker's exchange service. A Conn
// is not safe for concurrent use — internal/cluster pools several per worker
// and hands each goroutine its own. Every operation applies a deadline of
// min(ctx deadline, opTimeout) to the whole request/response round trip, so
// a hung worker surfaces as an error instead of wedging a fetch slot.
type Conn struct {
	nc        net.Conn
	br        *bufio.Reader // responses; a pipelined burst's acks arrive in one read
	workerID  string
	opTimeout time.Duration
}

// Chunk is one map-output put: Payload bytes for destination Dst,
// sequenced (Src, Seq).
type Chunk struct {
	Dst, Src, Seq int
	Payload       []byte
}

// putBurst bounds the puts PutAll writes before reading their acks. The
// worker answers while the driver is still writing, and nobody reads those
// answers until the burst is out; 64 unread acks (5 bytes each, or one short
// error string) always fit the socket buffers, so neither side can stall on
// a full pipe however many chunks a destination has. A burst also stops
// once it carries DefaultChunkBytes of payload, so one opTimeout deadline
// never covers much more data than a single chunk.
const putBurst = 64

// Dial connects to a worker exchange service and performs the hello
// handshake: the client advertises ProtoVersion and refuses a worker that
// answers with any other version (a worker likewise refuses a driver that
// speaks another version).
func Dial(ctx context.Context, addr, driverName string, opTimeout time.Duration) (*Conn, error) {
	d := net.Dialer{}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReader(nc), opTimeout: opTimeout}
	req := appendString([]byte{opHello}, driverName)
	req = append(req, ProtoVersion)
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("shuffle: hello to %s: %w", addr, err)
	}
	id, n, err := readString(resp)
	if err != nil || len(resp) != n+1 {
		nc.Close()
		return nil, fmt.Errorf("shuffle: malformed hello response from %s", addr)
	}
	if v := resp[n]; v != ProtoVersion {
		nc.Close()
		return nil, fmt.Errorf("shuffle: worker %s speaks protocol %d, driver speaks %d", addr, v, ProtoVersion)
	}
	c.workerID = id
	return c, nil
}

// WorkerID returns the identity the worker reported in the handshake.
func (c *Conn) WorkerID() string { return c.workerID }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Put pushes one untraced map-output chunk: payload bytes for (shuffleID,
// dst), sequenced (src, seq). Idempotent on the worker.
func (c *Conn) Put(ctx context.Context, shuffleID string, dst, src, seq int, payload []byte) error {
	return c.PutAll(ctx, shuffleID, []Chunk{{Dst: dst, Src: src, Seq: seq, Payload: payload}}, TraceCtx{})
}

// PutAll pushes chunks of shuffleID as pipelined puts carrying the trace
// context: each burst of up to putBurst requests leaves in one vectored
// write, payloads referenced rather than copied, and its acks are then read
// in order — one round trip per burst instead of one per chunk. Every ack
// is consumed even after a worker error, so the connection stays usable;
// the first worker error is returned. A transport error leaves the
// connection unusable. Puts are idempotent on the worker.
func (c *Conn) PutAll(ctx context.Context, shuffleID string, chunks []Chunk, tc TraceCtx) error {
	for len(chunks) > 0 {
		n, size := 1, len(chunks[0].Payload)
		for n < len(chunks) && n < putBurst && size+len(chunks[n].Payload) <= DefaultChunkBytes {
			size += len(chunks[n].Payload)
			n++
		}
		if err := c.putBurst(ctx, shuffleID, chunks[:n], tc); err != nil {
			return err
		}
		chunks = chunks[n:]
	}
	return nil
}

func (c *Conn) putBurst(ctx context.Context, shuffleID string, chunks []Chunk, tc TraceCtx) error {
	if err := c.arm(ctx); err != nil {
		return err
	}
	// Every header lives in one buffer sized so appends never move it (the
	// slices already handed to bufs stay valid): frame length, opcode, the
	// two strings and six uvarints, two of them the strings' lengths.
	per := 4 + 1 + len(shuffleID) + len(tc.TraceID) + 6*binary.MaxVarintLen64
	hdrs := make([]byte, 0, len(chunks)*per)
	bufs := make(net.Buffers, 0, 2*len(chunks))
	for _, ch := range chunks {
		start := len(hdrs)
		hdrs = append(hdrs, 0, 0, 0, 0, opPut)
		hdrs = appendString(hdrs, shuffleID)
		hdrs = binary.AppendUvarint(hdrs, uint64(ch.Dst))
		hdrs = binary.AppendUvarint(hdrs, uint64(ch.Src))
		hdrs = binary.AppendUvarint(hdrs, uint64(ch.Seq))
		hdrs = appendTraceCtx(hdrs, tc)
		binary.BigEndian.PutUint32(hdrs[start:], uint32(len(hdrs)-start-4+len(ch.Payload)))
		bufs = append(bufs, hdrs[start:len(hdrs):len(hdrs)], ch.Payload)
	}
	if _, err := bufs.WriteTo(c.nc); err != nil {
		return err
	}
	var firstErr error
	for range chunks {
		body, err := readMessage(c.br, DefaultMaxMessage)
		if err != nil {
			return err
		}
		if _, err := parseResponse(body); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Fetch returns the untraced merged payload for destination dst —
// FetchTraced with an empty trace context.
func (c *Conn) Fetch(ctx context.Context, shuffleID string, dst int) ([]byte, error) {
	return c.FetchTraced(ctx, shuffleID, dst, TraceCtx{})
}

// FetchTraced returns the merged payload for destination partition dst of
// shuffleID — all stored chunks concatenated in (src, seq) order — carrying
// the trace context.
func (c *Conn) FetchTraced(ctx context.Context, shuffleID string, dst int, tc TraceCtx) ([]byte, error) {
	req := appendString([]byte{opFetch}, shuffleID)
	req = binary.AppendUvarint(req, uint64(dst))
	req = appendTraceCtx(req, tc)
	return c.roundTrip(ctx, req)
}

// Spans ships back and clears the worker's recorded span subtrees for
// (shuffleID, traceID). Nil for an untraced shuffle.
func (c *Conn) Spans(ctx context.Context, shuffleID, traceID string) ([]*obs.SpanRecord, error) {
	if traceID == "" {
		return nil, nil
	}
	req := appendString([]byte{opSpans}, shuffleID)
	req = appendString(req, traceID)
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	recs, n, err := DecodeSpanSubtrees(resp)
	if err != nil {
		return nil, err
	}
	if n != len(resp) {
		return nil, fmt.Errorf("shuffle: %d trailing bytes after span payload", len(resp)-n)
	}
	return recs, nil
}

// Drop frees all worker-side state for shuffleID (stored chunks and
// recorded spans). Best-effort cleanup.
func (c *Conn) Drop(ctx context.Context, shuffleID string) error {
	_, err := c.roundTrip(ctx, appendString([]byte{opDrop}, shuffleID))
	return err
}

// Ping checks liveness and returns the worker's metrics snapshot. Used by
// the registry heartbeat.
func (c *Conn) Ping(ctx context.Context) (WorkerStats, error) {
	resp, err := c.roundTrip(ctx, []byte{opPing})
	if err != nil {
		return WorkerStats{}, err
	}
	var vals [8]int64
	for i := range vals {
		v, n, err := readUvarint(resp)
		if err != nil {
			return WorkerStats{}, fmt.Errorf("shuffle: truncated ping response")
		}
		vals[i] = int64(v)
		resp = resp[n:]
	}
	return WorkerStats{
		StoredBytes: vals[0], Shuffles: int(vals[1]),
		Goroutines: int(vals[2]), HeapBytes: vals[3],
		Fetches: vals[4], FetchP50us: vals[5], FetchP90us: vals[6], FetchP99us: vals[7],
	}, nil
}

// appendTraceCtx appends the trace-context fields.
func appendTraceCtx(req []byte, tc TraceCtx) []byte {
	req = appendString(req, tc.TraceID)
	parent := tc.ParentSpan
	if parent < 0 {
		parent = 0
	}
	return binary.AppendUvarint(req, uint64(parent))
}

// arm sets the deadline of one request/response exchange:
// min(ctx deadline, opTimeout).
func (c *Conn) arm(ctx context.Context) error {
	deadline := time.Now().Add(c.opTimeout)
	if c.opTimeout <= 0 {
		deadline = time.Now().Add(5 * time.Second)
	}
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.nc.SetDeadline(deadline)
}

func (c *Conn) roundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if err := c.arm(ctx); err != nil {
		return nil, err
	}
	if err := writeMessage(c.nc, req); err != nil {
		return nil, err
	}
	body, err := readMessage(c.br, DefaultMaxMessage)
	if err != nil {
		return nil, err
	}
	return parseResponse(body)
}
