package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Dictionary is a window dictionary as the writer builds it, the core of the
// paper's dictionary compressed skip list scheme (Section 5.3): map keys are
// drawn from a small set (HTTP header names, annotation labels), so
// replacing each key string with a varint id compresses well and decodes
// with a single slice lookup — far cheaper than LZO or ZLIB. Ids are
// positional: Add numbers strings in the order they first come, and Append
// writes them in that order. Readers never rebuild one; ParseDictionary
// reads the written bytes as a DictView.
type Dictionary struct {
	ids     map[string]uint32
	strings []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]uint32)}
}

// Add interns s and returns its id. Adding an existing string returns the
// existing id.
func (d *Dictionary) Add(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.strings))
	d.ids[s] = id
	d.strings = append(d.strings, s)
	return id
}

// ID returns the id for s, if present.
func (d *Dictionary) ID(s string) (uint32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Len returns the number of interned strings.
func (d *Dictionary) Len() int { return len(d.strings) }

// Append serializes the dictionary: uvarint count, then length-prefixed
// strings in id order.
func (d *Dictionary) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.strings)))
	for _, s := range d.strings {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DictView is a serialized dictionary read in place: the entries' bytes,
// copied once out of the buffer they were parsed from, behind a table of
// their offsets. Id i is the i-th entry, as the writer numbered it. A view
// is immutable and owns its memory, so it may outlive the buffer — a
// reader's stream window — and be shared by every vector that keeps it.
type DictView struct {
	// buf is n+1 little-endian uint32 offsets into buf itself, then the
	// entries back to back: entry i is buf[off(i):off(i+1)].
	buf []byte
	n   int
}

// ParseDictionary reads the dictionary Append wrote at the start of buf,
// returning its view and the number of bytes it took. It allocates the
// view and one buffer, whatever the entry count; a malformed dictionary
// allocates nothing.
func ParseDictionary(buf []byte) (*DictView, int, error) {
	count, start := binary.Uvarint(buf)
	if start <= 0 {
		return nil, 0, fmt.Errorf("compress: dict: truncated count")
	}
	if count > uint64(len(buf)) {
		return nil, 0, fmt.Errorf("compress: dict: count %d exceeds buffer", count)
	}
	// Check every entry and total their bytes before allocating.
	pos, body := start, 0
	for i := 0; i < int(count); i++ {
		lo, hi, err := dictEntry(buf, pos, i)
		if err != nil {
			return nil, 0, err
		}
		pos, body = hi, body+hi-lo
	}
	head := 4 * (int(count) + 1)
	if uint64(head+body) > math.MaxUint32 {
		return nil, 0, fmt.Errorf("compress: dict: %d bytes of entries", body)
	}
	d := &DictView{buf: make([]byte, head+body), n: int(count)}
	off := head
	for i, at := 0, start; i < d.n; i++ {
		lo, hi, _ := dictEntry(buf, at, i)
		binary.LittleEndian.PutUint32(d.buf[4*i:], uint32(off))
		off += copy(d.buf[off:], buf[lo:hi])
		at = hi
	}
	binary.LittleEndian.PutUint32(d.buf[4*d.n:], uint32(off))
	return d, pos, nil
}

// dictEntry bounds entry i, whose length prefix is at buf[pos]: its bytes
// are buf[lo:hi].
func dictEntry(buf []byte, pos, i int) (lo, hi int, err error) {
	l, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("compress: dict: truncated entry %d", i)
	}
	lo = pos + n
	if uint64(len(buf)-lo) < l {
		return 0, 0, fmt.Errorf("compress: dict: entry %d overruns buffer", i)
	}
	return lo, lo + int(l), nil
}

// Len returns the number of entries.
func (d *DictView) Len() int { return d.n }

// entry returns entry i's bytes, capped at their length.
func (d *DictView) entry(i int) []byte {
	lo := binary.LittleEndian.Uint32(d.buf[4*i:])
	hi := binary.LittleEndian.Uint32(d.buf[4*i+4:])
	return d.buf[lo:hi:hi]
}

// Lookup returns the bytes of entry id. They belong to the view: callers
// read them or copy them, never write them.
func (d *DictView) Lookup(id uint32) ([]byte, error) {
	if uint64(id) >= uint64(d.n) {
		return nil, fmt.Errorf("compress: dict: id %d out of range (%d entries)", id, d.n)
	}
	return d.entry(int(id)), nil
}

// ResolveID implements scan.IDResolver: it reports the needle's id within
// this dictionary — its first entry equal to the needle — and whether the
// dictionary contains it, letting predicate evaluation run in id space
// without materializing strings. It compares bytes entry by entry; callers
// resolve a needle once per window.
func (d *DictView) ResolveID(needle string) (uint32, bool) {
	for i := 0; i < d.n; i++ {
		if string(d.entry(i)) == needle {
			return uint32(i), true
		}
	}
	return 0, false
}
