package rcfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"colmr/internal/compress"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// InputFormat reads RCFiles with optional projection pushdown, taken from
// the job's scan.Spec Columns (the analogue of RCFile's column pruning
// configuration). RCFile has no predicate pushdown: the rest of the spec
// is not consulted.
type InputFormat struct {
	// SplitSize overrides the target split size (default: one HDFS block).
	SplitSize int64
}

// Splits implements mapred.InputFormat.
func (f *InputFormat) Splits(fs *hdfs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, error) {
	return mapred.SplitFiles(fs, conf.InputPaths, f.SplitSize)
}

// Open implements mapred.InputFormat.
func (f *InputFormat) Open(fs *hdfs.FileSystem, conf *mapred.JobConf, split mapred.Split, node hdfs.NodeID, stats *sim.TaskStats) (mapred.RecordReader, error) {
	fsplit, ok := split.(*mapred.FileSplit)
	if !ok {
		return nil, fmt.Errorf("rcfile: unexpected split type %T", split)
	}
	r, err := fs.Open(fsplit.Path, node)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		r.SetStats(&stats.IO)
	}
	rd := &reader{r: r, stats: stats, end: fsplit.End, size: r.Size()}
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	if conf.Scan != nil {
		if err := rd.setProjection(conf.Scan.Columns); err != nil {
			return nil, err
		}
	}
	if err := rd.align(fsplit.Start); err != nil {
		return nil, err
	}
	return rd, nil
}

type reader struct {
	r     *hdfs.FileReader
	stats *sim.TaskStats
	size  int64
	end   int64

	schema *serde.Schema
	codec  compress.Codec
	sync   []byte

	// projection
	projected []int // field indexes to materialize; nil = all
	outSchema *serde.Schema

	pos  int64 // next unread header-region offset (sequential cursor)
	done bool

	// current row group
	rows     int
	rowIdx   int
	chunks   [][]byte // decompressed chunks of projected columns
	chunkPos []int
	dec      serde.Decoder // re-Inited per value: its chunks box value after value
}

func (rd *reader) cpu() *sim.CPUStats {
	if rd.stats == nil {
		return nil
	}
	return &rd.stats.CPU
}

func (rd *reader) readHeader() error {
	hdr := make([]byte, 4)
	if _, err := rd.r.ReadAt(hdr, 0); err != nil && err != io.EOF {
		return err
	}
	if string(hdr) != magic {
		return fmt.Errorf("rcfile: bad magic %q", hdr)
	}
	rd.pos = 4
	schemaStr, err := rd.readString()
	if err != nil {
		return err
	}
	if rd.schema, err = serde.Parse(schemaStr); err != nil {
		return fmt.Errorf("rcfile: header schema: %w", err)
	}
	codecName, err := rd.readString()
	if err != nil {
		return err
	}
	if rd.codec, err = compress.ByName(codecName); err != nil {
		return err
	}
	sync := make([]byte, syncSize)
	if _, err := rd.readAtPos(sync); err != nil {
		return err
	}
	rd.sync = sync
	rd.outSchema = rd.schema
	return nil
}

// setProjection restricts materialization to the named columns.
func (rd *reader) setProjection(columns []string) error {
	if len(columns) == 0 {
		return nil
	}
	proj, err := rd.schema.Project(columns...)
	if err != nil {
		return err
	}
	rd.outSchema = proj
	rd.projected = nil
	for _, c := range columns {
		rd.projected = append(rd.projected, rd.schema.FieldIndex(c))
	}
	return nil
}

// align positions the reader at the first sync marker at or after `start`
// (skipped for start == 0, where the cursor already sits past the header).
func (rd *reader) align(start int64) error {
	if start <= rd.pos {
		return nil
	}
	needle := rd.sync
	buf := make([]byte, 0, 256<<10)
	at := start
	for {
		chunk := make([]byte, 128<<10)
		n, err := rd.r.ReadAt(chunk, at)
		if n == 0 {
			if err == io.EOF {
				rd.done = true
				return nil
			}
			return err
		}
		buf = append(buf, chunk[:n]...)
		if i := bytes.Index(buf, needle); i >= 0 {
			rd.pos = start + int64(i)
			return nil
		}
		keep := len(needle) - 1
		if len(buf) > keep {
			start += int64(len(buf) - keep)
			buf = buf[len(buf)-keep:]
		}
		at = start + int64(len(buf))
		if err == io.EOF {
			rd.done = true
			return nil
		}
	}
}

func (rd *reader) readAtPos(p []byte) (int, error) {
	n, err := rd.r.ReadAt(p, rd.pos)
	rd.pos += int64(n)
	if err == io.EOF && n == len(p) {
		err = nil
	}
	return n, err
}

func (rd *reader) readString() (string, error) {
	l, err := rd.readUvarint()
	if err != nil {
		return "", err
	}
	if l > 1<<20 {
		return "", fmt.Errorf("rcfile: absurd header string length %d", l)
	}
	b := make([]byte, l)
	if _, err := rd.readAtPos(b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (rd *reader) readUvarint() (uint64, error) {
	var tmp [binary.MaxVarintLen64]byte
	n, err := rd.r.ReadAt(tmp[:], rd.pos)
	if n == 0 {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, err
	}
	v, vn := binary.Uvarint(tmp[:n])
	if vn <= 0 {
		return 0, fmt.Errorf("rcfile: corrupt varint at offset %d", rd.pos)
	}
	rd.pos += int64(vn)
	return v, nil
}

// loadRowGroup reads the next row group's metadata and the projected
// column chunks.
func (rd *reader) loadRowGroup() error {
	// Row groups start with the sync marker. A group whose sync lies at or
	// past the split end belongs to the next split.
	if rd.pos >= rd.end || rd.pos+syncSize >= rd.size {
		rd.done = true
		return nil
	}
	sync := make([]byte, syncSize)
	if _, err := rd.readAtPos(sync); err != nil {
		if err == io.EOF {
			rd.done = true
			return nil
		}
		return err
	}
	if !bytes.Equal(sync, rd.sync) {
		return fmt.Errorf("rcfile: lost sync at offset %d", rd.pos-syncSize)
	}
	metaLen, err := rd.readUvarint()
	if err != nil {
		return err
	}
	meta := make([]byte, metaLen)
	if _, err := rd.readAtPos(meta); err != nil {
		return err
	}
	// Interpreting the metadata region is real varint-decode CPU — the
	// overhead the paper attributes to RCFile's per-group metadata.
	if cpu := rd.cpu(); cpu != nil {
		cpu.IntBytes += int64(len(meta))
	}
	md := serde.NewDecoder(meta, nil)
	rows, err := md.ReadUvarint()
	if err != nil {
		return fmt.Errorf("rcfile: metadata rows: %w", err)
	}
	nCols := len(rd.schema.Fields)
	compLens := make([]int64, nCols)
	rawLens := make([]int64, nCols)
	for c := 0; c < nCols; c++ {
		cl, err := md.ReadUvarint()
		if err != nil {
			return fmt.Errorf("rcfile: metadata col %d: %w", c, err)
		}
		rl, err := md.ReadUvarint()
		if err != nil {
			return fmt.Errorf("rcfile: metadata col %d: %w", c, err)
		}
		compLens[c], rawLens[c] = int64(cl), int64(rl)
		for r := uint64(0); r < rows; r++ {
			if _, err := md.ReadUvarint(); err != nil {
				return fmt.Errorf("rcfile: metadata value lengths col %d: %w", c, err)
			}
		}
	}

	// Data region: chunk offsets follow from the metadata.
	dataStart := rd.pos
	wanted := rd.projected
	if wanted == nil {
		wanted = make([]int, nCols)
		for i := range wanted {
			wanted[i] = i
		}
	}
	rd.chunks = make([][]byte, len(wanted))
	rd.chunkPos = make([]int, len(wanted))
	for oi, c := range wanted {
		off := dataStart
		for p := 0; p < c; p++ {
			off += compLens[p]
		}
		comp := make([]byte, compLens[c])
		if _, err := rd.r.ReadAt(comp, off); err != nil && err != io.EOF {
			return err
		}
		raw, err := rd.codec.Decompress(nil, comp, int(rawLens[c]))
		if err != nil {
			return fmt.Errorf("rcfile: column %d chunk: %w", c, err)
		}
		compress.ChargeDecomp(rd.cpu(), rd.codec.Name(), int64(len(raw)))
		rd.chunks[oi] = raw
	}
	var dataLen int64
	for _, cl := range compLens {
		dataLen += cl
	}
	rd.pos = dataStart + dataLen
	rd.rows = int(rows)
	rd.rowIdx = 0
	return nil
}

// Next implements mapred.RecordReader.
func (rd *reader) Next() (any, any, bool, error) {
	for rd.rowIdx >= rd.rows {
		if rd.done {
			return nil, nil, false, nil
		}
		if err := rd.loadRowGroup(); err != nil {
			return nil, nil, false, err
		}
		if rd.done {
			return nil, nil, false, nil
		}
	}
	rec := serde.NewRecord(rd.outSchema)
	for oi := range rd.chunks {
		fs := rd.outSchema.Fields[oi].Type
		rd.dec.Init(rd.chunks[oi][rd.chunkPos[oi]:], rd.cpu())
		v, err := rd.dec.Value(fs)
		if err != nil {
			return nil, nil, false, fmt.Errorf("rcfile: row %d col %q: %w", rd.rowIdx, rd.outSchema.Fields[oi].Name, err)
		}
		rd.chunkPos[oi] += rd.dec.Pos()
		rec.SetAt(oi, v)
	}
	if cpu := rd.cpu(); cpu != nil {
		cpu.RecordsMaterialized++
	}
	rd.rowIdx++
	return nil, rec, true, nil
}

// Close implements mapred.RecordReader.
func (rd *reader) Close() error { return rd.r.Close() }
