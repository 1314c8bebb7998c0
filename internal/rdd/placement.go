package rdd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"scrubjay/internal/obs"
)

// Placement is the seam between the rdd execution model and a physical
// cluster. When a Context carries a Placement (WithPlacement), every shuffle
// boundary whose RDD has a Wire routes its exchange through it: the driver
// encodes each (src, dst) bucket, the Placement moves the bytes through
// shard workers, and the driver decodes one merged payload per destination.
//
// The contract that keeps distributed runs bit-for-bit identical to
// in-process ones: the returned payload for destination d must be the
// concatenation of the enc[src][d] payloads in ascending src order (and,
// within one src, in chunk-sequence order). internal/cluster's Scheduler is
// the live TCP implementation; tests use in-memory fakes; a nil Placement
// (the default) is the deterministic in-process path simsched simulates
// placement for.
type Placement interface {
	// Exchange moves one shuffle's encoded buckets. enc[src][dst] is the
	// encoded payload source partition src contributes to destination dst
	// (nil or empty when nothing moves). It returns one merged payload per
	// destination, in the (src, seq) order documented above. stage names
	// the shuffle for diagnostics and worker-side storage keys.
	Exchange(ctx context.Context, stage string, numOut int, enc [][][]byte) ([][]byte, error)
}

// Wire describes how one element type crosses the exchange: Append encodes
// an element (self-delimiting), Decode consumes one element from the front
// of a payload and reports the bytes consumed. A merged destination payload
// is decoded by looping Decode until the payload is exhausted.
type Wire[T any] struct {
	Append func(buf []byte, v T) []byte
	Decode func(b []byte) (T, int, error)
}

// WithWire attaches a wire codec to r, making its downstream shuffle
// boundary eligible for distributed exchange. Mutates r in place (an RDD
// holds a mutex and is never copied) and returns it for chaining. RDDs
// without a wire always shuffle in-process, whatever the Placement.
func WithWire[T any](r *RDD[T], w *Wire[T]) *RDD[T] {
	r.wire = w
	return r
}

// WithPlacement returns a derived execution Context that routes eligible
// shuffle exchanges through p. The worker count, bound Go context, and
// trace scope carry over; pass nil to detach.
func (c *Context) WithPlacement(p Placement) *Context {
	nc := &Context{workers: c.workers, goCtx: c.goCtx, placement: p}
	nc.scope.Store(c.scope.Load())
	return nc
}

// Placement returns the Context's placement (nil = in-process shuffles).
func (c *Context) Placement() Placement { return c.placement }

// ExecFailure is the error (and internal panic payload) for a distributed
// exchange that failed after the scheduler exhausted its retries — a worker
// died mid-shuffle with no live replacement, or the data plane returned
// corrupt bytes. Distinct from Canceled: the query did not time out, the
// cluster failed it.
type ExecFailure struct {
	Stage string
	Cause error
}

func (e *ExecFailure) Error() string {
	return fmt.Sprintf("rdd: distributed exchange %q failed: %v", e.Stage, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ExecFailure) Unwrap() error { return e.Cause }

// encScratch recycles exchange encode buffers across source partitions and
// exchanges, so an encode grows a buffer by doubling only while it is
// larger than any before it.
var encScratch = sync.Pool{New: func() any { return new([]byte) }}

// exchangeVia routes bucketed shuffle output through the Context's
// Placement. buckets is [src][dst][]T as produced by the map-side tasks.
// Returns (nil, false) when the exchange is not eligible (no placement or
// no wire) — callers then run the in-process concatenation. On transport
// failure it panics with *ExecFailure (or *Canceled when the bound Go
// context ended), mirroring how cancellation propagates out of actions.
func exchangeVia[T any](c *Context, w *Wire[T], stage string, numOut int, buckets [][][]T) ([][]T, bool) {
	if c.placement == nil || w == nil {
		return nil, false
	}
	// Encode per source partition, in parallel under the task pool. Encode
	// and decode each record a span beside the exchange span, so a trace
	// splits driver-side codec time from time on the wire.
	encSpan := c.Span().Child("exchange-encode", stage)
	enc := make([][][]byte, len(buckets))
	var encBytes, encElems int64
	c.runTasks(len(buckets), func(i int) {
		// Every destination encodes into one recycled scratch buffer; the
		// source's payloads then take a single exact-size allocation, each
		// destination a capped sub-slice of it.
		scratch := encScratch.Get().(*[]byte)
		buf := (*scratch)[:0]
		ends := make([]int, numOut)
		var elems int64
		for d, bucket := range buckets[i] {
			for _, v := range bucket {
				buf = w.Append(buf, v)
			}
			ends[d] = len(buf)
			elems += int64(len(bucket))
		}
		exact := append([]byte(nil), buf...)
		*scratch = buf
		encScratch.Put(scratch)
		local := make([][]byte, numOut)
		lo := 0
		for d, hi := range ends {
			if hi > lo {
				local[d] = exact[lo:hi:hi]
			}
			lo = hi
		}
		enc[i] = local
		atomic.AddInt64(&encBytes, int64(len(exact)))
		atomic.AddInt64(&encElems, elems)
	})
	encSpan.SetInt("bytes", encBytes)
	encSpan.SetInt("elements", encElems)
	encSpan.End()

	goCtx := c.goCtx
	if goCtx == nil {
		goCtx = context.Background()
	}
	// The exchange span opens before the placement call so the scheduler can
	// read it from the context: its (trace id, span id) ride the wire as the
	// put/fetch trace context, and worker-recorded subtrees graft back under
	// it — the cross-process parent of everything this shuffle did remotely.
	exSpan := c.Span().Child(obs.KindStage, stage+"|shuffle-fetch")
	exSpan.SetBool(obs.AttrShuffle, true)
	exSpan.SetInt(obs.AttrPartitions, int64(numOut))
	goCtx = obs.ContextWithSpan(goCtx, exSpan)
	merged, err := c.placement.Exchange(goCtx, stage, numOut, enc)
	if err != nil {
		exSpan.End()
		if c.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			cause := c.Err()
			if cause == nil {
				cause = err
			}
			panic(&Canceled{Cause: cause})
		}
		panic(&ExecFailure{Stage: stage, Cause: err})
	}
	if len(merged) != numOut {
		exSpan.End()
		panic(&ExecFailure{Stage: stage, Cause: fmt.Errorf("placement returned %d partitions, want %d", len(merged), numOut)})
	}
	exSpan.SetInt(obs.AttrShuffleBytes, encBytes)
	exSpan.End()

	// Decode per destination partition, in parallel. A decode error is a
	// data-plane failure (corrupt payload), not a user-code panic.
	decSpan := c.Span().Child("exchange-decode", stage)
	dst := make([][]T, numOut)
	decodeErrs := make([]error, numOut)
	c.runTasks(numOut, func(d int) {
		payload := merged[d]
		var part []T
		for len(payload) > 0 {
			v, n, err := w.Decode(payload)
			if err != nil {
				decodeErrs[d] = err
				return
			}
			if n <= 0 {
				decodeErrs[d] = fmt.Errorf("wire decode consumed %d bytes", n)
				return
			}
			part = append(part, v)
			payload = payload[n:]
		}
		dst[d] = part
	})
	var decBytes, decElems int64
	for d, part := range dst {
		decBytes += int64(len(merged[d]))
		decElems += int64(len(part))
	}
	decSpan.SetInt("bytes", decBytes)
	decSpan.SetInt("elements", decElems)
	decSpan.End()
	for d, err := range decodeErrs {
		if err != nil {
			panic(&ExecFailure{Stage: stage, Cause: fmt.Errorf("decoding destination %d: %w", d, err)})
		}
	}

	return dst, true
}
