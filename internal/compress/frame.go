package compress

import (
	"encoding/binary"
	"fmt"
	"io"

	"colmr/internal/sim"
)

// Framed-block format, shared by block-compressed SequenceFiles and
// CIF compressed-block columns (paper Section 5.3, "Compressed Blocks"):
//
//	uvarint recordCount
//	uvarint rawLen
//	uvarint compLen
//	compLen bytes of codec output
//
// The header carries everything needed to *skip* the block without
// decompressing it — the basis of lazy decompression: a reader that knows
// no record in the block is needed seeks past compLen bytes, eliminating
// both the decompression CPU and (at transfer-unit granularity) most of the
// disk I/O.

// FrameHeader describes one compressed block.
type FrameHeader struct {
	Records int
	RawLen  int
	CompLen int
}

// AppendFrame compresses raw with the codec and appends a complete frame to
// dst, charging compression work to stats. The payload is compressed
// straight into dst behind room for the longest length prefix, then closed
// up against the prefix it turned out to need.
func AppendFrame(dst []byte, codec Codec, records int, raw []byte, stats *sim.CPUStats) ([]byte, error) {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(records))
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	lenAt := len(dst)
	var room [binary.MaxVarintLen64]byte
	dst, err := codec.Compress(append(dst, room[:]...), raw)
	if err != nil {
		return dst[:start], err
	}
	ChargeComp(stats, codec.Name(), int64(len(raw)))
	comp := dst[lenAt+len(room):]
	n := binary.PutUvarint(dst[lenAt:], uint64(len(comp)))
	return dst[:lenAt+n+copy(dst[lenAt+n:], comp)], nil
}

// WriteFrame is AppendFrame directly to a writer.
func WriteFrame(w io.Writer, codec Codec, records int, raw []byte, stats *sim.CPUStats) (int, error) {
	buf, err := AppendFrame(nil, codec, records, raw, stats)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// FrameReader iterates frames from a seekable stream (an hdfs.FileReader).
// After ReadHeader, the caller chooses Payload (decompress, charging codec
// CPU) or SkipPayload (seek past it, charging nothing but the seek).
type FrameReader struct {
	r     io.ReadSeeker
	codec Codec
	stats *sim.CPUStats

	hdr       FrameHeader
	havePayld bool
}

// NewFrameReader returns a frame reader over r using the given codec.
func NewFrameReader(r io.ReadSeeker, codec Codec, stats *sim.CPUStats) *FrameReader {
	return &FrameReader{r: r, codec: codec, stats: stats}
}

// ReadHeader reads the next frame header. It returns io.EOF cleanly at end
// of stream.
func (f *FrameReader) ReadHeader() (FrameHeader, error) {
	records, err := readUvarint(f.r)
	if err != nil {
		return FrameHeader{}, err // io.EOF at a frame boundary is clean EOF
	}
	rawLen, err := readUvarint(f.r)
	if err != nil {
		return FrameHeader{}, unexpectedEOF(err)
	}
	compLen, err := readUvarint(f.r)
	if err != nil {
		return FrameHeader{}, unexpectedEOF(err)
	}
	f.hdr = FrameHeader{Records: int(records), RawLen: int(rawLen), CompLen: int(compLen)}
	f.havePayld = true
	return f.hdr, nil
}

// Payload reads and decompresses the current frame's payload.
func (f *FrameReader) Payload() ([]byte, error) {
	if !f.havePayld {
		return nil, fmt.Errorf("compress: frame: Payload before ReadHeader")
	}
	comp := make([]byte, f.hdr.CompLen)
	if _, err := io.ReadFull(f.r, comp); err != nil {
		return nil, unexpectedEOF(err)
	}
	f.havePayld = false
	raw, err := f.codec.Decompress(nil, comp, f.hdr.RawLen)
	if err != nil {
		return nil, err
	}
	ChargeDecomp(f.stats, f.codec.Name(), int64(len(raw)))
	return raw, nil
}

// SkipPayload seeks past the current frame's payload without reading it.
func (f *FrameReader) SkipPayload() error {
	if !f.havePayld {
		return fmt.Errorf("compress: frame: SkipPayload before ReadHeader")
	}
	f.havePayld = false
	_, err := f.r.Seek(int64(f.hdr.CompLen), io.SeekCurrent)
	return err
}

func readUvarint(r io.Reader) (uint64, error) {
	var x uint64
	var s uint
	var one [1]byte
	for i := 0; ; i++ {
		if _, err := io.ReadFull(r, one[:]); err != nil {
			if i > 0 && err == io.EOF {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		b := one[0]
		if b < 0x80 {
			if i > 9 || i == 9 && b > 1 {
				return 0, fmt.Errorf("compress: frame: uvarint overflow")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
