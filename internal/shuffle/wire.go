package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// TCP exchange protocol. Every message is a 4-byte big-endian length
// followed by that many body bytes; the first body byte of a request is the
// opcode, of a response the status. Payloads inside messages reuse the
// uvarint/length-prefix conventions of the batch codec.
//
// Requests (protocol version ProtoVersion):
//
//	hello  driverName clientVersion      -> ok workerID ProtoVersion
//	       — negotiate-or-refuse: a hello without a version byte, or with
//	       any version but ProtoVersion, is answered with an error naming
//	       both versions.
//	put    shuffleID dst src seq traceID parentSpan bytes
//	                                     -> ok
//	fetch  shuffleID dst traceID parentSpan
//	                                     -> ok payload   (chunks merged in
//	                                        (src, seq) order — the worker's
//	                                        shuffle-read merge task)
//	       — traceID ("" = untraced) and the driver-side span id owning the
//	       exchange are the distributed-tracing context: a traced worker
//	       records put/merge/fetch spans under a per-(shuffle, trace)
//	       tracer.
//	spans  shuffleID traceID             -> ok spanSubtrees
//	       — ships the completed span subtrees for that (shuffle, trace)
//	       back to the driver (see AppendSpanSubtrees for the payload
//	       codec) and clears them worker-side.
//	drop   shuffleID                     -> ok           (frees the state,
//	                                        including recorded spans)
//	ping                                 -> ok storedBytes shuffleCount
//	                                        goroutines heapBytes fetches
//	                                        fetchP50us fetchP90us fetchP99us
//	       — the heartbeat metrics snapshot the registry aggregates into
//	       cluster_worker_* gauges.
//
// A worker answers requests on one connection strictly in order, so a
// driver may pipeline: write several requests, then read their responses in
// the same order (Conn.PutAll does this for puts). The driver keeps a fixed
// pool of long-lived connections per worker for parallelism.
const (
	ProtoVersion = 2

	opHello byte = 1
	opPut   byte = 2
	opFetch byte = 3
	opDrop  byte = 4
	opPing  byte = 5
	opSpans byte = 6

	statusOK  byte = 0
	statusErr byte = 1
)

// DefaultMaxMessage bounds one framed message (a put chunk plus headers, or
// a whole fetched partition). Exchanges chunk their puts well below this;
// the cap exists so a corrupt length prefix cannot ask for gigabytes.
const DefaultMaxMessage = 64 << 20

// DefaultChunkBytes is the put chunking threshold: one (src, dst) payload
// is shipped as ceil(len/chunk) sequenced puts.
const DefaultChunkBytes = 4 << 20

// writeMessage frames and writes one message whose body is the
// concatenation of parts: header and parts leave in one vectored write
// (writev on a TCP connection), so a message costs one syscall, never a
// second segment for its 4-byte header, and a body in several parts is
// never copied into one buffer.
func writeMessage(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	bufs := make(net.Buffers, 0, 1+len(parts))
	bufs = append(bufs, binary.BigEndian.AppendUint32(make([]byte, 0, 4), uint32(n)))
	bufs = append(bufs, parts...)
	_, err := bufs.WriteTo(w)
	return err
}

// readMessage reads one framed message body, enforcing the size cap.
func readMessage(r io.Reader, maxLen int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxLen) {
		return nil, fmt.Errorf("shuffle: message of %d bytes exceeds cap %d", n, maxLen)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString consumes a length-prefixed string.
func readString(b []byte) (string, int, error) {
	l, sz := binary.Uvarint(b)
	if sz <= 0 || l > uint64(len(b)-sz) {
		return "", 0, fmt.Errorf("shuffle: truncated string field")
	}
	return string(b[sz : sz+int(l)]), sz + int(l), nil
}

// readUvarint consumes one uvarint.
func readUvarint(b []byte) (uint64, int, error) {
	v, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("shuffle: truncated varint field")
	}
	return v, sz, nil
}

// errResponse renders an error response body.
func errResponse(err error) []byte {
	return appendString([]byte{statusErr}, err.Error())
}

// parseResponse splits a response body into its payload, surfacing a
// statusErr body as an error.
func parseResponse(body []byte) ([]byte, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("shuffle: empty response")
	}
	switch body[0] {
	case statusOK:
		return body[1:], nil
	case statusErr:
		msg, _, err := readString(body[1:])
		if err != nil {
			return nil, fmt.Errorf("shuffle: undecodable error response")
		}
		return nil, fmt.Errorf("shuffle: worker error: %s", msg)
	default:
		return nil, fmt.Errorf("shuffle: bad response status 0x%02x", body[0])
	}
}
