package wrappers

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// binMagic identifies ScrubJay's binary dataset format: a self-contained
// file holding the schema (JSON) followed by length-prefixed binary rows.
// It is roughly an order of magnitude faster to (de)serialize than the
// JSON-lines form and is what the derivation-result cache uses.
var binMagic = []byte("SJBIN1\n")

func init() {
	RegisterFormat("bin", readBin, writeBin)
}

// writeBin stores a dataset in the binary format (schema embedded; no
// sidecar needed).
func writeBin(ds *dataset.Dataset, dst Source) error {
	return writeFile("bin", dst.Path, func(w *bufio.Writer) error {
		if _, err := w.Write(binMagic); err != nil {
			return err
		}
		schemaJSON, err := json.Marshal(ds.Schema())
		if err != nil {
			return err
		}
		var hdr []byte
		hdr = binary.AppendUvarint(hdr, uint64(len(schemaJSON)))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		if _, err := w.Write(schemaJSON); err != nil {
			return err
		}
		rows := ds.Collect()
		var cnt []byte
		cnt = binary.AppendUvarint(cnt, uint64(len(rows)))
		if _, err := w.Write(cnt); err != nil {
			return err
		}
		buf := make([]byte, 0, 4096)
		for _, r := range rows {
			buf = buf[:0]
			buf = r.AppendBinary(buf)
			var pre []byte
			pre = binary.AppendUvarint(pre, uint64(len(buf)))
			if _, err := w.Write(pre); err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// readBin loads a binary dataset file.
func readBin(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
	f, err := os.Open(src.Path)
	if err != nil {
		return nil, fmt.Errorf("wrappers: bin: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != string(binMagic) {
		return nil, fmt.Errorf("wrappers: bin %s: bad magic", src.Path)
	}
	schemaLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("wrappers: bin %s: %w", src.Path, err)
	}
	schemaJSON := make([]byte, schemaLen)
	if _, err := io.ReadFull(r, schemaJSON); err != nil {
		return nil, fmt.Errorf("wrappers: bin %s: schema: %w", src.Path, err)
	}
	var schema semantics.Schema
	if err := json.Unmarshal(schemaJSON, &schema); err != nil {
		return nil, fmt.Errorf("wrappers: bin %s: schema: %w", src.Path, err)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("wrappers: bin %s: row count: %w", src.Path, err)
	}
	rows := make([]value.Row, 0, count)
	buf := make([]byte, 0, 4096)
	for i := uint64(0); i < count; i++ {
		sz, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("wrappers: bin %s: row %d: %w", src.Path, i, err)
		}
		if uint64(cap(buf)) < sz {
			buf = make([]byte, sz)
		}
		buf = buf[:sz]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("wrappers: bin %s: row %d: %w", src.Path, i, err)
		}
		row, _, err := value.DecodeRow(buf)
		if err != nil {
			return nil, fmt.Errorf("wrappers: bin %s: row %d: %w", src.Path, i, err)
		}
		rows = append(rows, row)
	}
	return dataset.FromRowsColumnar(ctx, datasetName(src), rows, schema, src.Partitions), nil
}
