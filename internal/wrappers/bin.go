package wrappers

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"scrubjay/internal/atomicfile"
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/shuffle"
)

// binMagic starts ScrubJay's binary dataset format, version 2, which every
// result-cache entry uses: the schema as one line of JSON, a uvarint frame
// count, then each partition's frame in the shuffle codec's encoding
// (shuffle.AppendFrame). Version 1 ("SJBIN1") stored boxed rows.
var binMagic = []byte("SJBIN2\n")

// writeBin stores a dataset in the binary format. A retained frames RDD (a
// cached pipeline step) computes once for the write and its consumers.
func writeBin(ds *dataset.Dataset, dst Source) error {
	return atomicfile.Write(dst.Path, func(w *bufio.Writer) error {
		return EncodeBin(w, ds.Schema(), ds.Frames().Collect())
	})
}

// EncodeBin writes schema and frames in the binary format. The bytes depend
// only on the schema and the frames, so hashed they digest the content.
func EncodeBin(w io.Writer, schema semantics.Schema, frames []*frame.Frame) error {
	schemaJSON, err := json.Marshal(schema)
	if err != nil {
		return err
	}
	buf := append(append(append([]byte(nil), binMagic...), schemaJSON...), '\n')
	buf = binary.AppendUvarint(buf, uint64(len(frames)))
	for _, f := range frames {
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = shuffle.AppendFrame(buf[:0], f)
	}
	_, err = w.Write(buf)
	return err
}

// readBin loads a binary dataset file, one partition per stored frame.
func readBin(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
	b, err := os.ReadFile(src.Path)
	if err != nil {
		return nil, fmt.Errorf("wrappers: bin: %w", err)
	}
	bad := func(format string, a ...any) (*dataset.Dataset, error) {
		return nil, fmt.Errorf("wrappers: bin %s: "+format, append([]any{src.Path}, a...)...)
	}
	b, ok := bytes.CutPrefix(b, binMagic)
	if !ok {
		return bad("bad magic %.7q, not SJBIN2 (SJBIN1 is the retired row format)", b)
	}
	var schema semantics.Schema
	schemaJSON, b, _ := bytes.Cut(b, []byte("\n"))
	if err := json.Unmarshal(schemaJSON, &schema); err != nil {
		return bad("schema: %w", err)
	}
	count, k := binary.Uvarint(b)
	if k <= 0 || count > uint64(len(b)-k) {
		return bad("bad frame count")
	} else if src.Partitions != 0 && uint64(src.Partitions) != count {
		return bad("stores %d partitions, not %d", count, src.Partitions)
	}
	b = b[k:]
	frames := make([]*frame.Frame, count)
	for i := range frames {
		if frames[i], k, err = shuffle.DecodeFrame(b); err != nil {
			return bad("frame %d: %w", i, err)
		}
		b = b[k:]
	}
	if len(b) != 0 {
		return bad("%d bytes after the last frame", len(b))
	}
	return dataset.FromFrames(ctx, datasetName(src), frames, schema), nil
}
