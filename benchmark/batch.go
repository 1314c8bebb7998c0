package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/shuffle"
	"scrubjay/internal/value"
)

// joinWorkload is a batch driver applying one combination to two columnar
// datasets and counting the result: natjoin_batch (Fig 3a) with
// derive.NaturalJoin and interpjoin_batch (Fig 3c) with
// derive.InterpolationJoin. One caller; an op is Apply then Count.
//
// natjoin_batch spends its time in the natural-join kernel, frame.HashOn
// and the in-process rdd exchange; engine, server, shuffle and cluster do
// nothing, so it is their bypass workload. interpjoin_batch spends it in
// the boxed-row fallback and the exchange-key path: a de-boxing or
// merge-path change must show here and a natural-join or wire change must
// not.
type joinWorkload struct {
	layer   string // "natjoin" or "interpjoin": the derive metric prefix
	comb    derive.Combination
	rows    int // per input table
	parts   int
	workers int
	warmups int
	tailQ   float64
	gen     func(seed int64, n int) (left, right table)
	// known, when set, computes the expected output checksum from the
	// generated inputs alone; otherwise verify takes it from the row path.
	known func(left, right table) (uint64, error)

	left, right table
	sample      []value.Row // kept past releaseInputs for the pivot probe
	wantRows    int64
	wantSum     uint64

	dict *semantics.Dictionary
	ctx  *rdd.Context
	l, r *dataset.Dataset
	lf   []*frame.Frame

	stageLog rddStats
}

// rddStats accumulates the rdd stage log of traced ops: a traced op turns it
// on with begin (Context.ResetMetrics) and folds it in with end
// (Context.SnapshotMetrics), which also turns recording off again.
type rddStats struct {
	ops         int
	taskMs      float64
	stages      float64
	shuffleRows float64
}

func (s *rddStats) begin(ctx *rdd.Context, tr *tracer) {
	if tr != nil {
		ctx.ResetMetrics()
	}
}

func (s *rddStats) end(ctx *rdd.Context, tr *tracer) {
	if tr == nil {
		return
	}
	m := ctx.SnapshotMetrics()
	ctx.SetSpan(nil)
	s.ops++
	s.taskMs += float64(m.TotalTaskTime().Nanoseconds()) / 1e6
	s.stages += float64(len(m.Stages))
	s.shuffleRows += float64(m.TotalShuffleRows())
}

// report sets the rdd metrics. opMs is the median wall time of a traced op.
func (s *rddStats) report(m metrics, tr *tracer, opMs float64, workers int) error {
	if s.ops == 0 {
		return fmt.Errorf("no traced op completed")
	}
	n := float64(s.ops)
	m.set("rdd.collect_ms", median(tr.durationsMs("rdd.collect")), "ms")
	m.set("rdd.task_ms_per_op", s.taskMs/n, "ms")
	m.set("rdd.stages_per_op", s.stages/n, "count")
	m.set("rdd.shuffle_rows_per_op", s.shuffleRows/n, "rows")
	m.set("rdd.parallel_eff", (s.taskMs/n)/(opMs*float64(workers)), "ratio")
	return nil
}

func (w *joinWorkload) clients() int          { return 1 }
func (w *joinWorkload) tailQuantile() float64 { return w.tailQ }

// rowSum is an order-independent checksum of JSON-encoded rows: the sum of
// each row's FNV-1a hash.
func rowSum(sum uint64, rowJSON []byte) uint64 {
	h := fnv.New64a()
	h.Write(rowJSON)
	return sum + h.Sum64()
}

// rowsChecksum encodes boundary-format rows with encoding/json.
func rowsChecksum(rows []value.Row) (uint64, error) {
	var sum uint64
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return 0, err
		}
		sum = rowSum(sum, b)
	}
	return sum, nil
}

// framesChecksum encodes result frames with the encoder the server streams
// with, so a checksum match also holds frame.AppendRowJSON to encoding/json.
func framesChecksum(frames []*frame.Frame) (rows int64, sum uint64) {
	var buf []byte
	for _, f := range frames {
		keys := f.EncodedKeys()
		for i := 0; i < f.NumRows(); i++ {
			buf = f.AppendRowJSON(buf[:0], i, keys)
			sum = rowSum(sum, buf)
		}
		rows += int64(f.NumRows())
	}
	return rows, sum
}

func (w *joinWorkload) generate(seed int64) error {
	w.dict = semantics.DefaultDictionary()
	w.left, w.right = w.gen(seed, w.rows)
	w.sample = append([]value.Row(nil), w.left.rows[:min(len(w.left.rows), 50_000)]...)
	w.wantRows = int64(w.rows) // both generators emit exactly one row per left row
	if w.known == nil {
		return nil
	}
	var err error
	w.wantSum, err = w.known(w.left, w.right)
	return err
}

// natJoinChecksum is the checksum of the natural join of genNatJoin's
// tables, known without running the join: keys are unique, so each left row
// gains the value column of the right row with its key.
func natJoinChecksum(left, right table) (uint64, error) {
	power := make(map[string]value.Value, len(right.rows))
	for _, r := range right.rows {
		power[r["node"].StrVal()] = r["power"]
	}
	var sum uint64
	joined := make(value.Row, 3)
	for _, r := range left.rows {
		joined["node_id"], joined["load"], joined["power"] = r["node_id"], r["load"], power[r["node_id"].StrVal()]
		b, err := json.Marshal(joined)
		if err != nil {
			return 0, err
		}
		sum = rowSum(sum, b)
	}
	return sum, nil
}

// pivot turns a generated table into a columnar dataset: the row→frame
// pivot a loader pays once per dataset.
func pivot(ctx *rdd.Context, t table, parts int) ([]*frame.Frame, *dataset.Dataset) {
	frames := dataset.FromRowsColumnar(ctx, t.name, t.rows, t.schema, parts).Frames().Collect()
	return frames, dataset.FromFrames(ctx, t.name, frames, t.schema)
}

func (w *joinWorkload) setUp() error {
	w.ctx = rdd.NewContext(w.workers)
	w.lf, w.l = pivot(w.ctx, w.left, w.parts)
	_, w.r = pivot(w.ctx, w.right, w.parts)
	for i := 0; i < w.warmups; i++ {
		if _, err := w.op(0, 0, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *joinWorkload) tearDown() {}

// releaseInputs keeps the rows only when verify still needs them for the
// row-path reference.
func (w *joinWorkload) releaseInputs() {
	if w.known != nil {
		w.left.rows, w.right.rows = nil, nil
	}
}

func (w *joinWorkload) op(_, i int, tr *tracer) (int64, error) {
	w.stageLog.begin(w.ctx, tr)
	root := tr.start("op", i, -1)
	sp := tr.start("derive."+w.layer+".apply", i, root)
	out, err := w.comb.Apply(w.l, w.r, w.dict)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("rdd.collect", i, root)
	n := out.Count()
	tr.end(sp)
	tr.end(root)
	w.stageLog.end(w.ctx, tr)
	if n != w.wantRows {
		return 0, fmt.Errorf("%s emitted %d rows, want %d", w.layer, n, w.wantRows)
	}
	// The rate counts input rows: both tables pass through the join.
	return int64(2 * w.rows), nil
}

func (w *joinWorkload) verify() error {
	if w.known == nil {
		// The row-at-a-time operators are the reference the columnar ones
		// are held to; run the same join through them.
		ref, err := w.comb.Apply(
			dataset.FromRows(w.ctx, w.left.name, w.left.rows, w.left.schema, w.parts),
			dataset.FromRows(w.ctx, w.right.name, w.right.rows, w.right.schema, w.parts), w.dict)
		if err != nil {
			return err
		}
		if w.wantSum, err = rowsChecksum(ref.Collect()); err != nil {
			return err
		}
	}
	out, err := w.comb.Apply(w.l, w.r, w.dict)
	if err != nil {
		return err
	}
	rows, sum := framesChecksum(out.Columnar().Frames().Collect())
	if rows != w.wantRows || sum != w.wantSum {
		return fmt.Errorf("%s output: %d rows checksum %x, want %d rows checksum %x", w.layer, rows, sum, w.wantRows, w.wantSum)
	}
	return nil
}

// timeMs runs f reps times and returns the median duration.
func timeMs(reps int, f func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		f()
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// frameProbes times the frame and shuffle-codec kernels on a workload's own
// frames: key hashing, NDJSON encoding, and the exchange wire codec.
func frameProbes(frames []*frame.Frame, keyCols []string, sample []value.Row, m metrics) error {
	var rows int
	for _, f := range frames {
		rows += f.NumRows()
	}
	if rows == 0 {
		return fmt.Errorf("frame probes: no rows")
	}
	pivotMs := timeMs(3, func() { frame.FromRows(sample) })
	m.set("frame.pivot_rows_per_s", float64(len(sample))/(pivotMs/1e3), "rows/s")

	hashes := make([][]uint64, len(frames))
	m.set("frame.hashon_ms", timeMs(3, func() {
		for i, f := range frames {
			hashes[i] = f.HashOn(keyCols, nil)
		}
	}), "ms")

	var buf []byte
	var jsonBytes int
	jsonMs := timeMs(3, func() {
		jsonBytes = 0
		for _, f := range frames {
			keys := f.EncodedKeys()
			for i := 0; i < f.NumRows(); i++ {
				buf = f.AppendRowJSON(buf[:0], i, keys)
				jsonBytes += len(buf)
			}
		}
	})
	m.set("frame.rowjson_mb_per_s", float64(jsonBytes)/1e6/(jsonMs/1e3), "MB/s")

	var wire []byte
	encMs := timeMs(3, func() {
		wire = wire[:0]
		for i, f := range frames {
			wire = shuffle.AppendBatch(wire, f, hashes[i])
		}
	})
	var decErr error
	decMs := timeMs(3, func() {
		for b := wire; len(b) > 0 && decErr == nil; {
			var n int
			_, _, n, decErr = shuffle.DecodeBatch(b)
			b = b[n:]
		}
	})
	if decErr != nil {
		return fmt.Errorf("frame probes: decoding own batch: %w", decErr)
	}
	mb := float64(len(wire)) / 1e6
	m.set("shuffle.encode_mb_per_s", mb/(encMs/1e3), "MB/s")
	m.set("shuffle.decode_mb_per_s", mb/(decMs/1e3), "MB/s")
	m.set("shuffle.wire_bytes_per_row", float64(len(wire))/float64(rows), "bytes")
	return nil
}

func (w *joinWorkload) layers(tr *tracer, run *runStats, m metrics) error {
	if err := w.stageLog.report(m, tr, median(run.latencies(true)), w.ctx.Workers()); err != nil {
		return fmt.Errorf("%s: %w", w.layer, err)
	}
	m.set("derive."+w.layer+".apply_ms", median(tr.durationsMs("derive."+w.layer+".apply")), "ms")
	m.set("derive."+w.layer+".out_rows", float64(w.wantRows), "rows")
	return frameProbes(w.lf, []string{"node_id"}, w.sample, m)
}
