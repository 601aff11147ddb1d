// Package seal is the one checksum rule for records written whole and read
// back whole. A record ends in a trailer: its total length, then a CRC-32C
// (Castagnoli) of every byte before the checksum, both little-endian
// uint32s. A record shorter than its trailer says is torn — a write still
// in flight, or one a crash cut short — and a reader may fall back to an
// older record. A full-length record whose checksum fails is corrupt: the
// reader's error names the file.
package seal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Len is the trailer's length in bytes.
const Len = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrTorn marks a record shorter than its trailer says.
	ErrTorn = errors.New("torn record")
	// ErrChecksum marks a full-length record whose checksum fails.
	ErrChecksum = errors.New("checksum mismatch")
)

// Append appends the trailer of the record that starts at dst[start].
func Append(dst []byte, start int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start+Len))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// Open checks the trailer of data, one whole record, and returns the
// record's bytes before it: ErrTorn when data is not as long as the trailer
// says, ErrChecksum when it is and the checksum fails.
func Open(data []byte) ([]byte, error) {
	if len(data) < Len {
		return nil, ErrTorn
	}
	n := len(data) - Len
	if int64(binary.LittleEndian.Uint32(data[n:])) != int64(len(data)) {
		return nil, ErrTorn
	}
	if crc32.Checksum(data[:n+4], castagnoli) != binary.LittleEndian.Uint32(data[n+4:]) {
		return nil, ErrChecksum
	}
	return data[:n], nil
}
