// Package shuffle is ScrubJay's distributed-exchange data plane: a compact
// binary wire codec for frame.Frame column batches and a TCP exchange
// service that moves them between the driver and the shard worker
// processes (scrubjay worker).
// The paper ran its derivation queries on a 10-node Spark cluster whose
// shuffles serialize column batches across the network (§6); this package
// is that exchange fabric for the reproduction — internal/cluster plans
// stages onto workers, internal/rdd selects the path via its Placement
// interface, and simsched remains the in-process deterministic test
// double.
//
// The codec is exact: DecodeFrame(AppendFrame(f)) observes cell-for-cell
// the same values, kinds, and presence as f, so a distributed run is
// bit-for-bit identical to the in-process one (the Fig-5 e2e pins this).
package shuffle

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"scrubjay/internal/frame"
	"scrubjay/internal/value"
)

// Wire-format markers. A version bump changes the marker so a mixed-version
// cluster fails loudly at decode instead of mis-reading vectors.
const (
	frameMarker byte = 0xF6 // one encoded frame (0xF5 had no dictionary columns)
	batchMarker byte = 0xB5 // one batch: hash vector + frame
)

// dictString is the kind byte of a dictionary-encoded string column. It is
// no value.Kind, so a decoder without dictionaries could not mistake it.
const dictString byte = 0x80 | byte(value.KindString)

// Frame encoding, after the marker byte:
//
//	uvarint nrows, uvarint ncols
//	per column, in the frame's canonical (sorted-name) order:
//	  uvarint len(name), name bytes
//	  byte kind              (value.Kind; KindNull marks boxed storage,
//	                          dictString a dictionary string column)
//	  byte presence flag     (0 = all cells present, 1 = bitmap follows)
//	  [bitmap: ceil(nrows/64) x u64 little-endian]
//	  payload by kind:
//	    bool/int/time  nrows x zigzag varint
//	    float          nrows x 8 bytes (raw IEEE-754 bits, little-endian)
//	    string         nrows x (uvarint len + bytes)
//	    dictString     uvarint nentries, nentries x (uvarint len + bytes),
//	                   all distinct, then nrows x uvarint code (each <
//	                   nentries)
//	    span           nrows x (varint start, varint end)
//	    boxed          nrows x value.AppendBinary
//
// Absent cells occupy their slot with the zero payload (typed), code 0
// (dictString) or an encoded Null (boxed); the bitmap is authoritative for
// presence. A string column is written as dictString exactly when
// frame.Column.DictCodes accepts it: at least one present cell, a repeat
// in a sample of its cells, and few enough distinct strings. The entries
// are the ones the chunk uses, in first-use order, whether the column was
// dictionary-encoded in memory or not, so the bytes depend only on the
// cells. The decoder rejects a repeated entry or a code past the entries.

// AppendFrame appends the wire encoding of f to buf and returns the
// extended slice.
func AppendFrame(buf []byte, f *frame.Frame) []byte { return appendFrame(buf, f, nil) }

// appendFrame appends the encoding of f's rows sel, in that order (every
// row when sel is nil): the bytes AppendFrame appends for f.Gather(sel),
// read from f without building the gathered frame.
func appendFrame(buf []byte, f *frame.Frame, sel []int32) []byte {
	buf = append(buf, frameMarker)
	n := f.NumRows()
	if sel != nil {
		n = len(sel)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(f.NumCols()))
	for ci := 0; ci < f.NumCols(); ci++ {
		c := f.ColAt(ci)
		buf = binary.AppendUvarint(buf, uint64(len(c.Name())))
		buf = append(buf, c.Name()...)
		entries, codes, dict := c.DictCodes(sel)
		if dict {
			buf = append(buf, dictString)
		} else {
			buf = append(buf, byte(c.Kind()))
		}
		if !hasAbsent(c, sel) {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = appendPresence(buf, c, sel, n)
		}
		if !dict {
			buf = appendPayload(buf, c, sel, n)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(entries)))
		for _, s := range entries {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, code := range codes {
			buf = binary.AppendUvarint(buf, uint64(code))
		}
	}
	return buf
}

// hasAbsent reports whether the column Gather(sel) would build from c has
// a presence bitmap: with no selection, whether c has one; with one,
// whether a selected cell is absent.
func hasAbsent(c *frame.Column, sel []int32) bool {
	if sel == nil || c.AllPresent() {
		return !c.AllPresent()
	}
	for _, i := range sel {
		if !c.Present(int(i)) {
			return true
		}
	}
	return false
}

// appendPresence appends the presence bitmap of c's cells sel (c's own
// bitmap when sel is nil), n cells in all.
func appendPresence(buf []byte, c *frame.Column, sel []int32, n int) []byte {
	for w := 0; w < (n+63)/64; w++ {
		if sel == nil {
			buf = binary.LittleEndian.AppendUint64(buf, c.PresenceWord(w))
			continue
		}
		var word uint64
		for b, i := range sel[64*w : min(64*w+64, n)] {
			if c.Present(int(i)) {
				word |= 1 << b
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	return buf
}

// appendPayload appends the payload of a column not written as dictString:
// its cells sel, or its first n cells when sel is nil.
func appendPayload(buf []byte, c *frame.Column, sel []int32, n int) []byte {
	row := func(k int) int {
		if sel != nil {
			return int(sel[k])
		}
		return k
	}
	switch c.Kind() {
	case value.KindBool, value.KindInt, value.KindTime:
		for k := 0; k < n; k++ {
			buf = binary.AppendVarint(buf, c.IntAt(row(k)))
		}
	case value.KindFloat:
		for k := 0; k < n; k++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.FloatAt(row(k))))
		}
	case value.KindString: // an absent cell writes "", however it is stored
		for k := 0; k < n; k++ {
			var s string
			if i := row(k); c.Present(i) {
				s = c.StrAt(i)
			}
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	case value.KindSpan:
		for k := 0; k < n; k++ {
			i := row(k)
			buf = binary.AppendVarint(buf, c.IntAt(i))
			buf = binary.AppendVarint(buf, c.SpanEndAt(i))
		}
	default: // boxed: an absent cell boxes to Null, the stored zero value
		for k := 0; k < n; k++ {
			buf = c.Value(row(k)).AppendBinary(buf)
		}
	}
	return buf
}

// DecodeFrame decodes one frame from b, returning the frame and the bytes
// consumed. Truncated or corrupt input returns an error, never panics —
// the decoder trusts nothing about lengths it has not yet verified.
func DecodeFrame(b []byte) (*frame.Frame, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("shuffle: empty frame input")
	}
	if b[0] != frameMarker {
		return nil, 0, fmt.Errorf("shuffle: bad frame marker 0x%02x", b[0])
	}
	pos := 1
	nrows, ncols, pos, err := decodeHeader(b, pos)
	if err != nil {
		return nil, 0, err
	}
	cols := make([]frame.Column, 0, ncols)
	for ci := 0; ci < ncols; ci++ {
		var col frame.Column
		col, pos, err = decodeColumn(b, pos, nrows)
		if err != nil {
			return nil, 0, fmt.Errorf("shuffle: column %d: %w", ci, err)
		}
		cols = append(cols, col)
	}
	f, err := frame.RawFrame(nrows, cols)
	if err != nil {
		return nil, 0, fmt.Errorf("shuffle: %w", err)
	}
	return f, pos, nil
}

// AppendBatch appends one exchange batch: the rows' key-hash vector (may be
// nil for hash-free exchanges) followed by the frame. len(hashes) must be 0
// or f.NumRows().
func AppendBatch(buf []byte, f *frame.Frame, hashes []uint64) []byte {
	return AppendSelection(buf, f, hashes, nil)
}

// AppendSelection appends the exchange batch of f's rows sel, in that
// order (every row when sel is nil), with their entries of hashes: exactly
// the bytes AppendBatch appends for f.Gather(sel) and hashes gathered at
// sel, encoded straight from f and hashes. A routed batch is a selection
// of its source batch, so this is how one crosses the wire without a copy.
// len(hashes) must be 0 or f.NumRows().
func AppendSelection(buf []byte, f *frame.Frame, hashes []uint64, sel []int32) []byte {
	if len(hashes) != 0 && len(hashes) != f.NumRows() {
		panic("shuffle: AppendBatch hash vector length mismatch")
	}
	buf = append(buf, batchMarker)
	switch {
	case len(hashes) == 0:
		buf = binary.AppendUvarint(buf, 0)
	case sel == nil:
		buf = binary.AppendUvarint(buf, uint64(len(hashes)))
		for _, h := range hashes {
			buf = binary.LittleEndian.AppendUint64(buf, h)
		}
	default:
		buf = binary.AppendUvarint(buf, uint64(len(sel)))
		for _, i := range sel {
			buf = binary.LittleEndian.AppendUint64(buf, hashes[i])
		}
	}
	return appendFrame(buf, f, sel)
}

// DecodeBatch decodes one batch produced by AppendBatch.
func DecodeBatch(b []byte) (*frame.Frame, []uint64, int, error) {
	if len(b) == 0 {
		return nil, nil, 0, fmt.Errorf("shuffle: empty batch input")
	}
	if b[0] != batchMarker {
		return nil, nil, 0, fmt.Errorf("shuffle: bad batch marker 0x%02x", b[0])
	}
	pos := 1
	nh, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return nil, nil, 0, fmt.Errorf("shuffle: truncated batch hash count")
	}
	pos += sz
	if nh > uint64(len(b)-pos)/8 {
		return nil, nil, 0, fmt.Errorf("shuffle: implausible batch hash count %d", nh)
	}
	var hashes []uint64
	if nh > 0 {
		hashes = make([]uint64, nh)
		for i := range hashes {
			hashes[i] = binary.LittleEndian.Uint64(b[pos : pos+8])
			pos += 8
		}
	}
	f, n, err := DecodeFrame(b[pos:])
	if err != nil {
		return nil, nil, 0, err
	}
	if nh > 0 && int(nh) != f.NumRows() {
		return nil, nil, 0, fmt.Errorf("shuffle: batch hash vector has %d entries for %d rows", nh, f.NumRows())
	}
	return f, hashes, pos + n, nil
}

func decodeHeader(b []byte, pos int) (nrows, ncols, newPos int, err error) {
	nr, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return 0, 0, 0, fmt.Errorf("shuffle: truncated row count")
	}
	pos += sz
	nc, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return 0, 0, 0, fmt.Errorf("shuffle: truncated column count")
	}
	pos += sz
	// Sanity caps: every row of every column costs at least one payload
	// byte, so counts beyond the remaining input are corruption, not data.
	if nc > uint64(len(b)-pos) {
		return 0, 0, 0, fmt.Errorf("shuffle: implausible column count %d", nc)
	}
	if nc > 0 && nr > uint64(len(b)-pos) {
		return 0, 0, 0, fmt.Errorf("shuffle: implausible row count %d", nr)
	}
	if nr > math.MaxInt32 || nc > math.MaxInt32 {
		return 0, 0, 0, fmt.Errorf("shuffle: oversized frame header (%d rows, %d cols)", nr, nc)
	}
	return int(nr), int(nc), pos, nil
}

func decodeColumn(b []byte, pos, nrows int) (frame.Column, int, error) {
	var zero frame.Column
	nameLen, sz := binary.Uvarint(b[pos:])
	if sz <= 0 || nameLen > uint64(len(b)-pos-sz) {
		return zero, 0, fmt.Errorf("truncated name")
	}
	pos += sz
	name := string(b[pos : pos+int(nameLen)])
	pos += int(nameLen)
	if len(b)-pos < 2 {
		return zero, 0, fmt.Errorf("truncated kind/presence header")
	}
	kind := value.Kind(b[pos])
	presFlag := b[pos+1]
	pos += 2
	var pres []uint64
	if presFlag == 1 {
		words := (nrows + 63) / 64
		if len(b)-pos < words*8 {
			return zero, 0, fmt.Errorf("truncated presence bitmap")
		}
		pres = make([]uint64, words)
		for i := range pres {
			pres[i] = binary.LittleEndian.Uint64(b[pos : pos+8])
			pos += 8
		}
	} else if presFlag != 0 {
		return zero, 0, fmt.Errorf("bad presence flag 0x%02x", presFlag)
	}

	var (
		ints []int64
		flts []float64
		ends []int64
		boxd []value.Value
	)
	// Every payload costs at least one byte per row, so an nrows beyond the
	// remaining input can never complete — reject before allocating.
	if kind != value.KindFloat && nrows > len(b)-pos {
		return zero, 0, fmt.Errorf("truncated payload (%d rows, %d bytes left)", nrows, len(b)-pos)
	}
	switch kind {
	case value.Kind(dictString):
		return decodeDict(b, pos, name, nrows, pres)
	case value.KindBool, value.KindInt, value.KindTime:
		ints = make([]int64, nrows)
		for i := range ints {
			v, sz := binary.Varint(b[pos:])
			if sz <= 0 {
				return zero, 0, fmt.Errorf("truncated int payload")
			}
			ints[i] = v
			pos += sz
		}
	case value.KindFloat:
		if len(b)-pos < nrows*8 {
			return zero, 0, fmt.Errorf("truncated float payload")
		}
		flts = make([]float64, nrows)
		for i := range flts {
			flts[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[pos : pos+8]))
			pos += 8
		}
	case value.KindString:
		return decodeStrings(b, pos, name, nrows, pres)
	case value.KindSpan:
		ints = make([]int64, nrows)
		ends = make([]int64, nrows)
		for i := 0; i < nrows; i++ {
			s, sz := binary.Varint(b[pos:])
			if sz <= 0 {
				return zero, 0, fmt.Errorf("truncated span start")
			}
			pos += sz
			e, sz := binary.Varint(b[pos:])
			if sz <= 0 {
				return zero, 0, fmt.Errorf("truncated span end")
			}
			pos += sz
			ints[i], ends[i] = s, e
		}
	case value.KindNull:
		boxd = make([]value.Value, nrows)
		for i := range boxd {
			v, sz, err := value.DecodeValue(b[pos:])
			if err != nil {
				return zero, 0, fmt.Errorf("boxed cell %d: %w", i, err)
			}
			boxd[i] = v
			pos += sz
		}
	default:
		return zero, 0, fmt.Errorf("unknown column kind %d", kind)
	}
	col, err := frame.RawColumn(name, kind, nrows, ints, flts, ends, boxd, pres)
	if err != nil {
		return zero, 0, err
	}
	return col, pos, nil
}

// decodeStrings decodes a plain string payload, a length and the bytes per
// cell, into one arena: a first pass checks the lengths and sums them into
// the offsets, a second copies the bytes into a buffer of exactly that
// size. A column's strings cost one allocation however many cells it has.
func decodeStrings(b []byte, pos int, name string, nrows int, pres []uint64) (frame.Column, int, error) {
	var zero frame.Column
	off := make([]uint32, nrows+1)
	end := pos
	for i := 0; i < nrows; i++ {
		l, sz := binary.Uvarint(b[end:])
		if sz <= 0 || l > uint64(len(b)-end-sz) {
			return zero, 0, fmt.Errorf("truncated string payload")
		}
		end += sz + int(l)
		size := uint64(off[i]) + l
		if size > math.MaxUint32 {
			return zero, 0, fmt.Errorf("string payload beyond 4 GiB")
		}
		off[i+1] = uint32(size)
	}
	var sb strings.Builder
	sb.Grow(int(off[nrows]))
	for i := 0; i < nrows; i++ {
		_, sz := binary.Uvarint(b[pos:])
		pos += sz
		l := int(off[i+1] - off[i])
		sb.Write(b[pos : pos+l])
		pos += l
	}
	col, err := frame.RawStringColumn(name, nrows, sb.String(), off, pres)
	if err != nil {
		return zero, 0, err
	}
	return col, pos, nil
}

// decodeDict decodes a dictString payload. The entries are substrings of
// one string copied out of the input, so a chunk's strings cost one
// allocation however many cells use them.
func decodeDict(b []byte, pos int, name string, nrows int, pres []uint64) (frame.Column, int, error) {
	var zero frame.Column
	m, sz := binary.Uvarint(b[pos:])
	if sz <= 0 || m > uint64(len(b)-pos-sz) {
		return zero, 0, fmt.Errorf("truncated dictionary size")
	}
	pos += sz
	start, end := pos, pos
	for k := uint64(0); k < m; k++ {
		l, sz := binary.Uvarint(b[end:])
		if sz <= 0 || l > uint64(len(b)-end-sz) {
			return zero, 0, fmt.Errorf("truncated dictionary entry %d", k)
		}
		end += sz + int(l)
	}
	all := string(b[start:end])
	entries := make([]string, m)
	for k := range entries {
		l, sz := binary.Uvarint(b[pos:])
		o := pos - start + sz
		entries[k] = all[o : o+int(l)]
		pos += sz + int(l)
	}
	codes := make([]uint32, nrows)
	for i := range codes {
		c, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return zero, 0, fmt.Errorf("truncated dictionary code")
		}
		if c >= m {
			return zero, 0, fmt.Errorf("cell %d: dictionary code %d beyond %d entries", i, c, m)
		}
		codes[i] = uint32(c)
		pos += sz
	}
	col, err := frame.RawDictColumn(name, nrows, entries, codes, pres)
	if err != nil {
		return zero, 0, err
	}
	return col, pos, nil
}
