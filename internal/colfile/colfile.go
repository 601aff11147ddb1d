package colfile

import (
	"encoding/binary"
	"fmt"
	"io"

	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Layout selects the physical organization of a column file.
type Layout uint8

// Layouts. See the package comment.
const (
	Plain Layout = iota
	SkipList
	Block
	DCSL
)

// String returns the layout's configuration name.
func (l Layout) String() string {
	switch l {
	case Plain:
		return "plain"
	case SkipList:
		return "skiplist"
	case Block:
		return "block"
	case DCSL:
		return "dcsl"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// ParseLayout is the inverse of Layout.String.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "plain":
		return Plain, nil
	case "skiplist":
		return SkipList, nil
	case "block":
		return Block, nil
	case "dcsl":
		return DCSL, nil
	default:
		return 0, fmt.Errorf("colfile: unknown layout %q", s)
	}
}

// DefaultLevels are the paper's skip levels: 1000, 100, and 10 records.
var DefaultLevels = []int{1000, 100, 10}

// DefaultBlockBytes is the target uncompressed size of one compressed block.
const DefaultBlockBytes = 128 << 10

// Options configures a column file writer.
type Options struct {
	// Layout is the physical layout; Plain if unset.
	Layout Layout
	// Levels are the skip levels, descending; each must be a multiple of
	// the next. Defaults to DefaultLevels for SkipList and DCSL layouts.
	Levels []int
	// Codec is the Block layout's compression codec name ("lzo", "zlib").
	Codec string
	// BlockBytes is the Block layout's target uncompressed block size.
	BlockBytes int
	// StatsEvery is the record-group granularity of the zone-map stats
	// section for Plain, SkipList, and DCSL layouts (Block layouts always
	// cut one group per compressed frame). 0 selects DefaultStatsEvery;
	// negative disables the stats section.
	StatsEvery int
	// NoBloom suppresses the per-group and whole-file Bloom filters the
	// stats section otherwise carries for string, bytes, and map columns.
	// The rest of the section (zone maps, key universes) is unaffected.
	NoBloom bool
}

func (o Options) withDefaults() Options {
	if len(o.Levels) == 0 {
		o.Levels = DefaultLevels
	}
	if o.BlockBytes == 0 {
		o.BlockBytes = DefaultBlockBytes
	}
	if o.Codec == "" {
		o.Codec = "none"
	}
	if o.StatsEvery == 0 {
		o.StatsEvery = DefaultStatsEvery
	}
	return o
}

func (o Options) validate() error {
	if err := validLevels(o.Levels); err != nil {
		return err
	}
	if o.BlockBytes < 1 {
		return fmt.Errorf("colfile: block size must be positive")
	}
	return nil
}

// validLevels is the skip-level rule writers and readers share: descending,
// each a multiple of the next, the smallest at least 2. A zero level fails it
// without being divided by.
func validLevels(levels []int) error {
	for i := 0; i+1 < len(levels); i++ {
		if l, next := levels[i], levels[i+1]; l <= next || next != 0 && l%next != 0 {
			return fmt.Errorf("colfile: levels %v must be descending with each a multiple of the next", levels)
		}
	}
	if len(levels) == 0 || levels[len(levels)-1] < 2 {
		return fmt.Errorf("colfile: smallest level must be >= 2")
	}
	return nil
}

const (
	headerMagic = "CF01"
	footerMagic = "CFE2"
	footerSize  = 8 + 4 + 4 // u64 record count + u32 stats size + magic
)

// header is the on-disk file header.
type header struct {
	layout Layout
	levels []int
	codec  string
}

func appendHeader(dst []byte, h header) []byte {
	dst = append(dst, headerMagic...)
	dst = append(dst, byte(h.layout))
	dst = append(dst, byte(len(h.levels)))
	for _, l := range h.levels {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	dst = binary.AppendUvarint(dst, uint64(len(h.codec)))
	dst = append(dst, h.codec...)
	return dst
}

// parseHeader reads the header from the front of the stream.
func parseHeader(s *stream) (header, error) {
	var h header
	magic, err := s.readFull(len(headerMagic))
	if err != nil {
		return h, fmt.Errorf("colfile: reading header: %w", err)
	}
	if string(magic) != headerMagic {
		return h, fmt.Errorf("colfile: bad magic %q", magic)
	}
	b, err := s.readFull(2)
	if err != nil {
		return h, fmt.Errorf("colfile: reading header: %w", err)
	}
	h.layout = Layout(b[0])
	if h.layout > DCSL {
		return h, fmt.Errorf("colfile: unknown layout byte %d", b[0])
	}
	nLevels := int(b[1])
	for i := 0; i < nLevels; i++ {
		l, err := s.readUvarint()
		if err != nil {
			return h, fmt.Errorf("colfile: reading levels: %w", err)
		}
		h.levels = append(h.levels, int(l))
	}
	cl, err := s.readUvarint()
	if err != nil {
		return h, fmt.Errorf("colfile: reading codec: %w", err)
	}
	if cl > 64 {
		return h, fmt.Errorf("colfile: absurd codec name length %d", cl)
	}
	cb, err := s.readFull(int(cl))
	if err != nil {
		return h, fmt.Errorf("colfile: reading codec: %w", err)
	}
	h.codec = string(cb)
	return h, nil
}

// appendFooter writes the fixed footer: record count, the byte length of
// the zone-map stats section that precedes it, and the magic.
func appendFooter(dst []byte, count int64, statsLen int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(statsLen))
	return append(dst, footerMagic...)
}

// unchargedReaderAt is implemented by readers (hdfs.FileReader) that can
// serve metadata reads outside the I/O accounting.
type unchargedReaderAt interface {
	UnchargedReadAt(p []byte, off int64) (int, error)
}

// readFooter reads the record count and stats-section length from the file
// tail without charging the accounting sink (footers are metadata, like the
// split's schema file).
func readFooter(r ReaderAtSize) (count, statsLen int64, err error) {
	size := r.Size()
	if size < footerSize {
		return 0, 0, fmt.Errorf("colfile: file too small for footer (%d bytes)", size)
	}
	var buf [footerSize]byte
	readAt := r.ReadAt
	if u, ok := r.(unchargedReaderAt); ok {
		readAt = u.UnchargedReadAt
	}
	if _, err := readAt(buf[:], size-footerSize); err != nil && err != io.EOF {
		return 0, 0, fmt.Errorf("colfile: reading footer: %w", err)
	}
	if string(buf[12:]) != footerMagic {
		return 0, 0, fmt.Errorf("colfile: bad footer magic %q", buf[12:])
	}
	count = int64(binary.LittleEndian.Uint64(buf[:8]))
	statsLen = int64(binary.LittleEndian.Uint32(buf[8:12]))
	if statsLen > size-footerSize {
		return 0, 0, fmt.Errorf("colfile: stats section length %d exceeds file", statsLen)
	}
	return count, statsLen, nil
}

// RecordCount reads a column file's record count from its footer without
// charging the accounting sink and without opening a reader. Pruning tiers
// use it to account for records they skip when the predicate needed no
// statistics at all (a constant-false predicate proves NoMatch without
// consulting any column).
func RecordCount(r ReaderAtSize) (int64, error) {
	count, _, err := readFooter(r)
	return count, err
}

// ReaderAtSize is the read-side abstraction: positional reads plus a known
// size. hdfs.FileReader and bytes.Reader both satisfy it.
type ReaderAtSize interface {
	io.ReaderAt
	Size() int64
}

// Writer appends column values to a file.
type Writer interface {
	// Append adds one value, which must conform to the column schema.
	Append(v any) error
	// Count returns the number of values appended so far.
	Count() int64
	// Close flushes buffered data and writes the footer.
	Close() error
}

// Reader iterates a column file.
type Reader interface {
	// Value decodes the value of the current record and advances past it.
	Value() (any, error)
	// SkipTo advances the cursor to the given record index without
	// materializing skipped values. The cost depends on the layout.
	SkipTo(target int64) error
	// Record returns the index of the record the cursor is positioned on.
	Record() int64
	// Total returns the number of records in the file.
	Total() int64
	// Release hands the reader's buffered window back for the next file to
	// reuse; call it when done with the reader. Calling it twice is a no-op,
	// and a reader never released still works (its window is collected).
	// Values already decoded stay valid: they never alias the window.
	Release()
}

// groupPtrSize is the byte width of one skip pointer.
const groupPtrSize = 4

// levelsAt returns how many skip pointers the group at record index i has
// (one per level that divides i). A group exists wherever the smallest
// level divides i.
func levelsAt(levels []int, i int64) int {
	n := 0
	for _, l := range levels {
		if i%int64(l) == 0 {
			n++
		}
	}
	return n
}

// decodeValue decodes one value from the stream through the reader's own
// decoder. serde.Decoder commits a call's charges only when it succeeds, so
// a retried short window pollutes no counter.
func decodeValue(s *stream, d *serde.Decoder, schema *serde.Schema, stats *sim.CPUStats) (any, error) {
	var v any
	err := s.decodeRetry(func(buf []byte) (int, error) {
		d.Init(buf, stats)
		val, err := d.Value(schema)
		if err != nil {
			return 0, err
		}
		v = val
		return d.Pos(), nil
	})
	return v, err
}

// scanValue walks one value charging full per-type decode counters — the
// paper's "no deserialization savings" skip used by Plain layouts.
func scanValue(s *stream, d *serde.Decoder, schema *serde.Schema, stats *sim.CPUStats) error {
	return s.decodeRetry(func(buf []byte) (int, error) {
		d.Init(buf, stats)
		if err := d.Scan(schema); err != nil {
			return 0, err
		}
		return d.Pos(), nil
	})
}
