package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scrubjay/internal/obs"
)

// Server is the worker side of the exchange: it stores map-output chunks
// pushed by the driver and serves merged destination partitions back. The
// scheduler guarantees push-before-fetch per destination (it barriers the
// push phase of a shuffle before issuing any fetch), so the server needs no
// completeness tracking of its own — the merge is purely the deterministic
// (src, seq)-ordered concatenation that makes distributed runs bit-for-bit
// identical to in-process ones.
//
// Puts are idempotent: re-pushing a chunk after a retry overwrites the
// identical bytes, so a task observed twice is visible at most once.
//
// Each put/fetch carries a trace context; for a traced one the server
// records its side of the exchange — put, fetch, and merge spans with
// bytes/chunks attrs — under one obs.Tracer per (shuffle, trace), and
// ships the completed subtree back on the spans op (cleared worker-side on
// shipment, on drop, and bounded by liveTraceCap against drivers that
// never collect).
type Server struct {
	id string
	ln net.Listener

	mu       sync.Mutex
	shuffles map[string]map[int]map[uint64][]byte // shuffleID -> dst -> src<<32|seq -> chunk
	traces   map[traceKey]*workerTrace
	conns    map[net.Conn]struct{}
	bytes    int64
	closed   bool

	accepted atomic.Int64

	fetchUS *obs.Histogram // merge latency, reported in the ping snapshot

	wg sync.WaitGroup
}

// traceKey identifies one traced shuffle on one driver trace.
type traceKey struct {
	shuffle string
	trace   string
}

// liveTraceCap bounds concurrently-open worker traces: past it, new traced
// shuffles record nothing (the driver's graft is best-effort), so a driver
// that dies before collecting cannot grow worker memory without bound.
const liveTraceCap = 64

// putSpanCap bounds per-trace put child spans; further puts still count in
// the root's put_chunks/put_bytes totals but add no span, keeping a huge
// exchange's subtree shippable.
const putSpanCap = 128

// workerTrace is the server-side span state of one (shuffle, trace): a
// private tracer whose root span collects put/fetch/merge children.
type workerTrace struct {
	tracer *obs.Tracer
	root   *obs.Span

	puts     atomic.Int64
	putBytes atomic.Int64
}

// Serve starts a worker exchange service listening on addr (e.g.
// "127.0.0.1:0") identifying itself as id in handshakes; an empty id
// defaults to the bound address.
func Serve(addr, id string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if id == "" {
		id = ln.Addr().String()
	}
	s := &Server{
		id:       id,
		ln:       ln,
		shuffles: make(map[string]map[int]map[uint64][]byte),
		traces:   make(map[traceKey]*workerTrace),
		conns:    make(map[net.Conn]struct{}),
		fetchUS:  &obs.Histogram{},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ID returns the worker identity used in handshakes.
func (s *Server) ID() string { return s.id }

// Close stops the listener, tears down open connections, and waits for the
// serving goroutines to drain. An in-flight request may be cut mid-stream;
// the driver treats that like any other worker failure.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Accepted reports how many connections the server has accepted since
// Serve. A driver in steady state reuses its pooled connections, so this
// stops growing after the first exchange.
func (s *Server) Accepted() int64 { return s.accepted.Load() }

// Stats reports stored payload bytes and live shuffle count.
func (s *Server) Stats() (storedBytes int64, shuffles int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, len(s.shuffles)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn answers framed requests in order until the peer hangs up or a
// framing error makes the stream unrecoverable. Application-level errors
// are answered with statusErr and the connection stays usable. Reads are
// buffered: a pipelined burst of puts arrives in a few reads, not two per
// message.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		req, err := readMessage(br, DefaultMaxMessage)
		if err != nil {
			return
		}
		if err := writeMessage(conn, s.handle(req)...); err != nil {
			return
		}
	}
}

// handle answers one request. The response body is the concatenation of
// the returned parts; only a fetch returns more than one.
func (s *Server) handle(req []byte) [][]byte {
	if len(req) == 0 {
		return [][]byte{errResponse(fmt.Errorf("empty request"))}
	}
	op, body := req[0], req[1:]
	switch op {
	case opHello:
		_, n, err := readString(body)
		if err != nil {
			return [][]byte{errResponse(err)}
		}
		// Negotiate-or-refuse: the client's version byte follows the
		// driver name and must be exactly ProtoVersion.
		if len(body) != n+1 || body[n] != ProtoVersion {
			got := "none"
			if len(body) > n {
				got = fmt.Sprint(body[n])
			}
			return [][]byte{errResponse(fmt.Errorf("protocol version %s not supported, worker speaks %d", got, ProtoVersion))}
		}
		resp := appendString([]byte{statusOK}, s.id)
		return [][]byte{append(resp, ProtoVersion)}
	case opPut:
		return [][]byte{s.handlePut(body)}
	case opFetch:
		return s.handleFetch(body)
	case opSpans:
		return [][]byte{s.handleSpans(body)}
	case opDrop:
		id, _, err := readString(body)
		if err != nil {
			return [][]byte{errResponse(err)}
		}
		s.mu.Lock()
		if byDst, ok := s.shuffles[id]; ok {
			for _, chunks := range byDst {
				for _, c := range chunks {
					s.bytes -= int64(len(c))
				}
			}
			delete(s.shuffles, id)
		}
		for k := range s.traces {
			if k.shuffle == id {
				delete(s.traces, k)
			}
		}
		s.mu.Unlock()
		return [][]byte{{statusOK}}
	case opPing:
		stored, n := s.Stats()
		resp := []byte{statusOK}
		resp = binary.AppendUvarint(resp, uint64(stored))
		resp = binary.AppendUvarint(resp, uint64(n))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		resp = binary.AppendUvarint(resp, uint64(runtime.NumGoroutine()))
		resp = binary.AppendUvarint(resp, ms.HeapAlloc)
		resp = binary.AppendUvarint(resp, uint64(s.fetchUS.Count()))
		resp = binary.AppendUvarint(resp, uint64(s.fetchUS.Quantile(0.50)))
		resp = binary.AppendUvarint(resp, uint64(s.fetchUS.Quantile(0.90)))
		resp = binary.AppendUvarint(resp, uint64(s.fetchUS.Quantile(0.99)))
		return [][]byte{resp}
	default:
		return [][]byte{errResponse(fmt.Errorf("unknown opcode 0x%02x", op))}
	}
}

// readTraceCtx consumes the trace-context fields (traceID, parentSpan).
func readTraceCtx(body []byte) (traceID string, parent int, n int, err error) {
	traceID, n, err = readString(body)
	if err != nil {
		return "", 0, 0, err
	}
	p, m, err := readUvarint(body[n:])
	if err != nil {
		return "", 0, 0, err
	}
	return traceID, int(p), n + m, nil
}

// traceFor returns the live trace state for key, creating it (bounded by
// liveTraceCap) on first use. parent is the driver-side owning span id.
// Nil means "do not record" — untraced, or the cap is reached.
func (s *Server) traceFor(key traceKey, parent int) *workerTrace {
	if key.trace == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wt, ok := s.traces[key]
	if !ok {
		if len(s.traces) >= liveTraceCap {
			return nil
		}
		tracer := obs.NewTracer(key.trace, nil)
		root := tracer.Start("worker-shuffle", key.shuffle)
		root.SetStr(obs.AttrWorker, s.id)
		root.SetInt(obs.AttrParentSpan, int64(parent))
		wt = &workerTrace{tracer: tracer, root: root}
		s.traces[key] = wt
	}
	return wt
}

// takeTrace removes and returns the trace state for key (nil when absent).
func (s *Server) takeTrace(key traceKey) *workerTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	wt := s.traces[key]
	delete(s.traces, key)
	return wt
}

func (s *Server) handlePut(body []byte) []byte {
	id, n, err := readString(body)
	if err != nil {
		return errResponse(err)
	}
	body = body[n:]
	dst, n, err := readUvarint(body)
	if err != nil {
		return errResponse(err)
	}
	body = body[n:]
	src, n, err := readUvarint(body)
	if err != nil {
		return errResponse(err)
	}
	body = body[n:]
	seq, n, err := readUvarint(body)
	if err != nil {
		return errResponse(err)
	}
	body = body[n:]
	traceID, parent, n, err := readTraceCtx(body)
	if err != nil {
		return errResponse(err)
	}
	chunk := body[n:]
	wt := s.traceFor(traceKey{shuffle: id, trace: traceID}, parent)
	if src > 1<<31 || seq > 1<<31 || dst > 1<<31 {
		return errResponse(fmt.Errorf("put indices out of range (dst=%d src=%d seq=%d)", dst, src, seq))
	}
	var start time.Duration
	if wt != nil {
		start = wt.root.Clock()()
	}
	key := src<<32 | seq
	// Stored without a copy: readMessage allocates a fresh body for every
	// message, so chunk shares its buffer with nothing else.
	s.mu.Lock()
	byDst, ok := s.shuffles[id]
	if !ok {
		byDst = make(map[int]map[uint64][]byte)
		s.shuffles[id] = byDst
	}
	chunks, ok := byDst[int(dst)]
	if !ok {
		chunks = make(map[uint64][]byte)
		byDst[int(dst)] = chunks
	}
	if old, dup := chunks[key]; dup {
		s.bytes -= int64(len(old))
	}
	chunks[key] = chunk
	s.bytes += int64(len(chunk))
	s.mu.Unlock()
	if wt != nil {
		wt.recordPut(int(dst), int(src), int(seq), len(chunk), start)
	}
	return []byte{statusOK}
}

// recordPut attaches one put span (up to putSpanCap) and bumps the root
// totals.
func (w *workerTrace) recordPut(dst, src, seq, bytes int, start time.Duration) {
	n := w.puts.Add(1)
	w.putBytes.Add(int64(bytes))
	if n > putSpanCap {
		return
	}
	sp := w.root.ChildAt("worker-put", fmt.Sprintf("dst%d", dst), start)
	sp.SetInt(obs.AttrPartition, int64(dst))
	sp.SetInt("src", int64(src))
	sp.SetInt("seq", int64(seq))
	sp.SetInt("bytes", int64(bytes))
	sp.EndAt(w.root.Clock()())
}

// handleFetch answers a fetch with the status byte followed by the stored
// chunks in (src, seq) order, uncopied: serveConn writes them with one
// vectored write. A stored chunk is never modified (a re-put or a drop
// replaces the map entry, not the bytes), so the write needs no lock.
func (s *Server) handleFetch(body []byte) [][]byte {
	id, n, err := readString(body)
	if err != nil {
		return [][]byte{errResponse(err)}
	}
	body = body[n:]
	dst, n, err := readUvarint(body)
	if err != nil {
		return [][]byte{errResponse(err)}
	}
	traceID, parent, _, err := readTraceCtx(body[n:])
	if err != nil {
		return [][]byte{errResponse(err)}
	}
	wt := s.traceFor(traceKey{shuffle: id, trace: traceID}, parent)
	var fetchSpan *obs.Span // nil-safe: nil when untraced
	if wt != nil {
		fetchSpan = wt.root.Child("worker-fetch", fmt.Sprintf("dst%d", dst))
		fetchSpan.SetInt(obs.AttrPartition, int64(dst))
	}
	mergeStart := time.Now()

	s.mu.Lock()
	var chunks map[uint64][]byte
	if byDst, ok := s.shuffles[id]; ok {
		chunks = byDst[int(dst)]
	}
	keys := make([]uint64, 0, len(chunks))
	total := 0
	for k, c := range chunks {
		keys = append(keys, k)
		total += len(c)
	}
	var mergeSpan *obs.Span
	if fetchSpan != nil {
		mergeSpan = fetchSpan.Child("worker-merge", fmt.Sprintf("dst%d", dst))
		mergeSpan.SetInt("chunks", int64(len(keys)))
		mergeSpan.SetInt("bytes", int64(total))
	}
	slices.Sort(keys)
	resp := make([][]byte, 1, 1+len(keys))
	resp[0] = []byte{statusOK}
	for _, k := range keys {
		resp = append(resp, chunks[k])
	}
	s.mu.Unlock()
	s.fetchUS.ObserveDuration(time.Since(mergeStart))
	mergeSpan.End()
	if fetchSpan != nil {
		fetchSpan.SetInt("chunks", int64(len(keys)))
		fetchSpan.SetInt("bytes", int64(total))
		fetchSpan.End()
	}
	return resp
}

// handleSpans ships the recorded span subtree for (shuffleID, traceID) and
// clears it: the driver collects at the exchange barrier, exactly once.
func (s *Server) handleSpans(body []byte) []byte {
	id, n, err := readString(body)
	if err != nil {
		return errResponse(err)
	}
	traceID, _, err := readString(body[n:])
	if err != nil {
		return errResponse(err)
	}
	var recs []*obs.SpanRecord
	if wt := s.takeTrace(traceKey{shuffle: id, trace: traceID}); wt != nil {
		wt.root.SetInt("put_chunks", wt.puts.Load())
		wt.root.SetInt("put_bytes", wt.putBytes.Load())
		wt.root.End()
		recs = append(recs, wt.tracer.Artifact().Root)
	}
	resp, err := AppendSpanSubtrees([]byte{statusOK}, recs)
	if err != nil {
		return errResponse(err)
	}
	return resp
}
