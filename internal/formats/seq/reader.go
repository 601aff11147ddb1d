package seq

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

// InputFormat reads SequenceFiles. The schema and compression settings
// come from each file's header, so the format needs no configuration.
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
		return nil, fmt.Errorf("seq: unexpected split type %T", split)
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
	if fsplit.Start > rd.pos {
		rd.pos = fsplit.Start
		rd.buf = nil
		if err := rd.scanToSync(); err != nil {
			if err == io.EOF {
				rd.done = true
				return rd, nil
			}
			return nil, err
		}
	}
	return rd, nil
}

type reader struct {
	r     *hdfs.FileReader
	stats *sim.TaskStats
	hdr   header
	codec compress.Codec
	fdec  map[string]compress.Codec
	dec   serde.Decoder // re-Inited per record: its chunks box record after record

	pos  int64 // absolute offset of buf[0]... consumed bytes are dropped
	end  int64
	size int64
	buf  []byte
	done bool

	// block mode iteration state
	block     []byte
	blockLeft int
	blockPos  int
}

func (rd *reader) cpu() *sim.CPUStats {
	if rd.stats == nil {
		return nil
	}
	return &rd.stats.CPU
}

// ensure makes n bytes available in buf, reading forward.
func (rd *reader) ensure(n int) error {
	for len(rd.buf) < n {
		at := rd.pos + int64(len(rd.buf))
		if at >= rd.size {
			return io.EOF
		}
		want := 128 << 10
		if rem := rd.size - at; int64(want) > rem {
			want = int(rem)
		}
		chunk := make([]byte, want)
		m, err := rd.r.ReadAt(chunk, at)
		if err != nil && err != io.EOF {
			return err
		}
		if m == 0 {
			return io.EOF
		}
		rd.buf = append(rd.buf, chunk[:m]...)
	}
	return nil
}

func (rd *reader) consume(n int) {
	rd.buf = rd.buf[n:]
	rd.pos += int64(n)
}

func (rd *reader) uvarint() (uint64, error) {
	for {
		v, n := binary.Uvarint(rd.buf)
		if n > 0 {
			rd.consume(n)
			return v, nil
		}
		if n < 0 {
			return 0, fmt.Errorf("seq: varint overflow at offset %d", rd.pos)
		}
		if err := rd.ensure(len(rd.buf) + 1); err != nil {
			return 0, err
		}
	}
}

func (rd *reader) take(n int) ([]byte, error) {
	if err := rd.ensure(n); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	b := rd.buf[:n]
	rd.consume(n)
	return b, nil
}

func (rd *reader) readHeader() error {
	m, err := rd.take(len(magic))
	if err != nil {
		return fmt.Errorf("seq: reading magic: %w", err)
	}
	if string(m) != magic {
		return fmt.Errorf("seq: bad magic %q", m)
	}
	mb, err := rd.take(1)
	if err != nil {
		return err
	}
	rd.hdr.mode = Mode(mb[0])
	if rd.hdr.mode > ModeBlock {
		return fmt.Errorf("seq: unknown mode byte %d", mb[0])
	}
	readStr := func() (string, error) {
		l, err := rd.uvarint()
		if err != nil {
			return "", err
		}
		if l > 1<<20 {
			return "", fmt.Errorf("seq: absurd header string length %d", l)
		}
		b, err := rd.take(int(l))
		return string(b), err
	}
	if rd.hdr.codec, err = readStr(); err != nil {
		return err
	}
	schemaStr, err := readStr()
	if err != nil {
		return err
	}
	if rd.hdr.schema, err = serde.Parse(schemaStr); err != nil {
		return fmt.Errorf("seq: header schema: %w", err)
	}
	nfc, err := rd.uvarint()
	if err != nil {
		return err
	}
	rd.hdr.fieldCodecs = map[string]string{}
	rd.fdec = map[string]compress.Codec{}
	for i := uint64(0); i < nfc; i++ {
		name, err := readStr()
		if err != nil {
			return err
		}
		cn, err := readStr()
		if err != nil {
			return err
		}
		rd.hdr.fieldCodecs[name] = cn
		c, err := compress.ByName(cn)
		if err != nil {
			return err
		}
		rd.fdec[name] = c
	}
	sync, err := rd.take(syncSize)
	if err != nil {
		return err
	}
	rd.hdr.sync = append([]byte(nil), sync...)
	if rd.codec, err = compress.ByName(rd.hdr.codec); err != nil {
		return err
	}
	return nil
}

// scanToSync advances to just past the next sync marker (including its
// tag), the alignment step for splits that start mid-file.
func (rd *reader) scanToSync() error {
	// The marker is preceded by the tagSync varint (one byte, value 0).
	needle := append([]byte{tagSync}, rd.hdr.sync...)
	for {
		if i := bytes.Index(rd.buf, needle); i >= 0 {
			rd.consume(i + len(needle))
			return nil
		}
		// Keep a tail that might hold a marker prefix; fetch more.
		keep := len(needle) - 1
		if len(rd.buf) > keep {
			rd.consume(len(rd.buf) - keep)
		}
		if err := rd.ensure(len(rd.buf) + 1); err != nil {
			return err
		}
	}
}

// Next implements mapred.RecordReader.
func (rd *reader) Next() (any, any, bool, error) {
	for {
		if rd.done {
			return nil, nil, false, nil
		}
		if rd.blockLeft > 0 {
			rec, err := rd.decodeFromBlock()
			if err != nil {
				return nil, nil, false, err
			}
			return nil, rec, true, nil
		}
		// Hadoop split semantics: a reader owns every record up to the
		// first sync marker at or past its end offset (the next split
		// aligns itself to that same marker).
		entryStart := rd.pos
		tag, err := rd.uvarint()
		if err == io.EOF {
			rd.done = true
			return nil, nil, false, nil
		}
		if err != nil {
			return nil, nil, false, err
		}
		switch tag {
		case tagSync:
			if entryStart >= rd.end {
				rd.done = true
				return nil, nil, false, nil
			}
			if _, err := rd.take(syncSize); err != nil {
				return nil, nil, false, err
			}
		case tagRecord:
			rec, err := rd.decodeRecordEntry()
			if err != nil {
				return nil, nil, false, err
			}
			return nil, rec, true, nil
		case tagBlock:
			if err := rd.loadBlock(); err != nil {
				return nil, nil, false, err
			}
		default:
			return nil, nil, false, fmt.Errorf("seq: unknown entry tag %d at offset %d", tag, rd.pos)
		}
	}
}

func (rd *reader) decodeRecordEntry() (*serde.GenericRecord, error) {
	rawLen, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	enc := []byte(nil)
	if rd.hdr.mode == ModeRecord {
		compLen, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		comp, err := rd.take(int(compLen))
		if err != nil {
			return nil, err
		}
		enc, err = rd.codec.Decompress(nil, comp, int(rawLen))
		if err != nil {
			return nil, err
		}
		compress.ChargeDecomp(rd.cpu(), rd.codec.Name(), int64(len(enc)))
	} else {
		enc, err = rd.take(int(rawLen))
		if err != nil {
			return nil, err
		}
	}
	return rd.decodeRecord(enc)
}

func (rd *reader) loadBlock() error {
	records, err := rd.uvarint()
	if err != nil {
		return err
	}
	rawLen, err := rd.uvarint()
	if err != nil {
		return err
	}
	compLen, err := rd.uvarint()
	if err != nil {
		return err
	}
	comp, err := rd.take(int(compLen))
	if err != nil {
		return err
	}
	raw, err := rd.codec.Decompress(nil, comp, int(rawLen))
	if err != nil {
		return err
	}
	compress.ChargeDecomp(rd.cpu(), rd.codec.Name(), int64(len(raw)))
	rd.block = raw
	rd.blockLeft = int(records)
	rd.blockPos = 0
	return nil
}

func (rd *reader) decodeFromBlock() (*serde.GenericRecord, error) {
	l, n := binary.Uvarint(rd.block[rd.blockPos:])
	if n <= 0 {
		return nil, fmt.Errorf("seq: corrupt block at value offset %d", rd.blockPos)
	}
	rd.blockPos += n
	if rd.blockPos+int(l) > len(rd.block) {
		return nil, fmt.Errorf("seq: block value overruns block")
	}
	enc := rd.block[rd.blockPos : rd.blockPos+int(l)]
	rd.blockPos += int(l)
	rd.blockLeft--
	return rd.decodeRecord(enc)
}

// decodeRecord deserializes a full record (SEQ always materializes every
// column) and reverses any application-level field compression.
func (rd *reader) decodeRecord(enc []byte) (*serde.GenericRecord, error) {
	rd.dec.Init(enc, rd.cpu())
	rec, err := rd.dec.Record(rd.hdr.schema)
	if err != nil {
		return nil, err
	}
	for name, codec := range rd.fdec {
		i := rd.hdr.schema.FieldIndex(name)
		packed, ok := rec.GetAt(i).([]byte)
		if !ok {
			return nil, fmt.Errorf("seq: compressed field %q is not bytes", name)
		}
		rawLen, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, fmt.Errorf("seq: compressed field %q missing length", name)
		}
		raw, err := codec.Decompress(nil, packed[n:], int(rawLen))
		if err != nil {
			return nil, fmt.Errorf("seq: field %q: %w", name, err)
		}
		compress.ChargeDecomp(rd.cpu(), codec.Name(), int64(len(raw)))
		rec.SetAt(i, raw)
	}
	return rec, nil
}

// Close implements mapred.RecordReader.
func (rd *reader) Close() error { return rd.r.Close() }

// Schema exposes the header schema (for tools).
func (rd *reader) Schema() *serde.Schema { return rd.hdr.schema }

// ReadSchema returns the schema stored in a SequenceFile's header.
func ReadSchema(fs *hdfs.FileSystem, path string) (*serde.Schema, error) {
	r, err := fs.Open(path, hdfs.AnyNode)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	rd := &reader{r: r, size: r.Size(), end: r.Size()}
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	return rd.hdr.schema, nil
}
