package compress

import (
	"encoding/binary"

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
