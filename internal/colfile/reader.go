package colfile

import (
	"encoding/binary"
	"fmt"
	"slices"

	"colmr/internal/compress"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// ReaderOptions tunes a column file reader.
type ReaderOptions struct {
	// Chunk is the refill granularity in bytes (default: one 128 KB
	// transfer unit).
	Chunk int
	// ChunkMin, when set below Chunk, enables adaptive readahead: the
	// first jump observed between refills shrinks the granularity to
	// ChunkMin, and sequential refills double it back up to Chunk.
	// Selective CIF scans set it so skip-list jumps stop paying
	// full-window prefetch, while a scan that never jumps streams at full
	// granularity throughout.
	ChunkMin int
	// OnRefill is invoked on every physical buffer refill with the bytes
	// fetched and the granularity in effect. CIF charges multi-stream
	// interleave cost here when scanning several column streams
	// concurrently, normalized per refill granularity.
	OnRefill func(bytes, chunk int)
	// NoBloom disables Bloom-filter consultation inside the reader — today
	// the DCSL key prober's group-filter fast path. CIF sets it from
	// scan.Spec.NoBloom so one job knob governs every tier.
	NoBloom bool
}

// NewReader opens a column file of the given value schema. The layout is
// discovered from the file header. CPU work is charged to stats.
func NewReader(r ReaderAtSize, schema *serde.Schema, stats *sim.CPUStats) (Reader, error) {
	return NewReaderOpts(r, schema, ReaderOptions{}, stats)
}

// NewReaderOpts is NewReader with explicit options.
func NewReaderOpts(r ReaderAtSize, schema *serde.Schema, opts ReaderOptions, stats *sim.CPUStats) (_ Reader, err error) {
	total, statsLen, err := readFooter(r)
	if err != nil {
		return nil, err
	}
	s := newStream(r, opts.Chunk)
	// Parsing the header takes the stream's window out of the pool; a file
	// rejected after that has no reader to Release it.
	defer func() {
		if err != nil {
			s.release()
		}
	}()
	s.dataEnd = r.Size() - footerSize - statsLen
	s.setShrink(opts.ChunkMin)
	s.onRefill = opts.OnRefill
	// Zone maps load lazily on the first GroupStats call, so a reader that
	// never prunes never touches the section.
	zm := &statsLoader{src: r, schema: schema, off: s.dataEnd, size: statsLen}
	h, err := parseHeader(s)
	if err != nil {
		return nil, err
	}
	switch h.layout {
	case Plain:
		return &plainReader{statsLoader: zm, s: s, schema: schema, stats: stats, total: total}, nil
	case Block:
		codec, err := compress.ByName(h.codec)
		if err != nil {
			return nil, err
		}
		return &blockReader{statsLoader: zm, s: s, schema: schema, stats: stats, codec: codec, total: total}, nil
	case SkipList, DCSL:
		if len(h.levels) == 0 {
			return nil, fmt.Errorf("colfile: %s file with no levels", h.layout)
		}
		if h.layout == DCSL && schema.Kind != serde.KindMap &&
			schema.Kind != serde.KindString && schema.Kind != serde.KindBytes {
			return nil, fmt.Errorf("colfile: DCSL file for non-dictionary schema %s", schema.Kind)
		}
		return &slReader{
			statsLoader: zm,
			s:           s,
			schema:      schema,
			stats:       stats,
			levels:      h.levels,
			dcsl:        h.layout == DCSL,
			noBloom:     opts.NoBloom,
			total:       total,
			probeWin:    -1,
		}, nil
	}
	return nil, fmt.Errorf("colfile: unknown layout %v", h.layout)
}

// plainReader iterates concatenated values. Skipping walks every record's
// encoding at full decode cost — the paper's "no savings" degradation.
type plainReader struct {
	*statsLoader
	s      *stream
	schema *serde.Schema
	stats  *sim.CPUStats
	dec    serde.Decoder // reused for every value: decoding allocates no decoder
	rec    int64
	total  int64
}

func (p *plainReader) Record() int64 { return p.rec }
func (p *plainReader) Total() int64  { return p.total }
func (p *plainReader) Release()      { p.s.release() }

func (p *plainReader) Value() (any, error) {
	if p.rec >= p.total {
		return nil, fmt.Errorf("colfile: read past end (record %d of %d)", p.rec, p.total)
	}
	v, err := decodeValue(p.s, &p.dec, p.schema, p.stats)
	if err != nil {
		return nil, err
	}
	p.rec++
	return v, nil
}

func (p *plainReader) SkipTo(target int64) error {
	if target > p.total {
		return fmt.Errorf("colfile: skip to %d past end %d", target, p.total)
	}
	for p.rec < target {
		if err := scanValue(p.s, &p.dec, p.schema, p.stats); err != nil {
			return err
		}
		p.rec++
	}
	return nil
}

// blockReader iterates compressed frames with lazy decompression: frames
// fully behind the skip target are seeked past using only their headers;
// touching any record in a frame decompresses the whole frame
// (Section 5.3, "Compressed Blocks").
type blockReader struct {
	*statsLoader
	s      *stream
	schema *serde.Schema
	stats  *sim.CPUStats
	codec  compress.Codec
	dec    serde.Decoder
	rec    int64
	total  int64

	// frame is the decompressed current frame. Its buffer is reused from
	// frame to frame, so nothing decoded may alias it: strings, byte slices
	// and map keys are copies.
	frame     []byte
	framePos  int
	frameLeft int // records remaining in current frame (incl. cursor's)
}

func (b *blockReader) Record() int64 { return b.rec }
func (b *blockReader) Total() int64  { return b.total }
func (b *blockReader) Release()      { b.s.release() }

func (b *blockReader) readFrameHeader() (records, rawLen, compLen int, err error) {
	r64, err := b.s.readUvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("colfile: frame header: %w", err)
	}
	raw64, err := b.s.readUvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("colfile: frame header: %w", err)
	}
	comp64, err := b.s.readUvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("colfile: frame header: %w", err)
	}
	return int(r64), int(raw64), int(comp64), nil
}

func (b *blockReader) loadFrame() error {
	records, rawLen, compLen, err := b.readFrameHeader()
	if err != nil {
		return err
	}
	return b.inflateFrame(records, rawLen, compLen)
}

// inflateFrame reads and decompresses the payload of the frame whose header
// was just read, making it the current frame.
func (b *blockReader) inflateFrame(records, rawLen, compLen int) error {
	comp, err := b.s.readFull(compLen)
	if err != nil {
		return err
	}
	raw, err := b.codec.Decompress(b.frame[:0], comp, rawLen)
	if err != nil {
		return err
	}
	compress.ChargeDecomp(b.stats, b.codec.Name(), int64(len(raw)))
	b.frame = raw
	b.framePos = 0
	b.frameLeft = records
	return nil
}

func (b *blockReader) Value() (any, error) {
	if b.rec >= b.total {
		return nil, fmt.Errorf("colfile: read past end (record %d of %d)", b.rec, b.total)
	}
	if b.frameLeft == 0 {
		if err := b.loadFrame(); err != nil {
			return nil, err
		}
	}
	v, err := b.frameValue()
	if err != nil {
		return nil, err
	}
	b.rec++
	return v, nil
}

// frameValue decodes the value at the frame cursor and steps past it.
func (b *blockReader) frameValue() (any, error) {
	b.dec.Init(b.frame[b.framePos:], b.stats)
	v, err := b.dec.Value(b.schema)
	if err != nil {
		return nil, err
	}
	b.framePos += b.dec.Pos()
	b.frameLeft--
	return v, nil
}

func (b *blockReader) SkipTo(target int64) error {
	if target > b.total {
		return fmt.Errorf("colfile: skip to %d past end %d", target, b.total)
	}
	for b.rec < target {
		if b.frameLeft == 0 {
			records, rawLen, compLen, err := b.readFrameHeader()
			if err != nil {
				return err
			}
			if b.rec+int64(records) <= target {
				// Lazy decompression: the whole frame is unneeded, so seek
				// past the payload without decompressing it.
				if err := b.s.skip(int64(compLen)); err != nil {
					return err
				}
				b.rec += int64(records)
				continue
			}
			if err := b.inflateFrame(records, rawLen, compLen); err != nil {
				return err
			}
		}
		// Walk within the decompressed frame: decompression is already
		// paid, so per-record movement is cheap skipping.
		b.dec.Init(b.frame[b.framePos:], b.stats)
		if err := b.dec.Skip(b.schema); err != nil {
			return err
		}
		b.framePos += b.dec.Pos()
		b.frameLeft--
		b.rec++
	}
	return nil
}

// slReader iterates skip-list and DCSL files.
//
// Invariant: the stream cursor is positioned at the start of record `rec`'s
// entity — its skip group if one exists (aligned == false), or its value
// (aligned == true, group and window dictionary consumed).
type slReader struct {
	*statsLoader
	s       *stream
	schema  *serde.Schema
	stats   *sim.CPUStats
	dec     serde.Decoder
	levels  []int
	dcsl    bool
	noBloom bool
	rec     int64
	total   int64

	aligned bool
	dict    *compress.Dictionary
	// dictBoxed[id] is the window dictionary's string id as Value hands it
	// out, boxed on first lookup (nil until then): a DCSL string column
	// repeats few strings over many rows.
	dictBoxed []any
	ptrs      []byte // SkipTo's copy of the current group's skip pointers

	// KeyProber memoization: repeated probes for the same key reuse the
	// group's Bloom verdict and the window's dictionary answer instead of
	// re-probing per record. Cursor movement never invalidates the memos —
	// they are keyed by position range — and a different key resets them.
	probeKey      string
	probeGroupEnd int64 // bloom verdict valid for rec < probeGroupEnd
	probeBloomNeg bool
	probeWin      int64 // window start the dict answer covers; -1 = none
	probeID       uint32
	probeInWin    bool
}

func (r *slReader) Record() int64 { return r.rec }
func (r *slReader) Total() int64  { return r.total }
func (r *slReader) Release()      { r.s.release() }

func (r *slReader) minLevel() int64 { return int64(r.levels[len(r.levels)-1]) }
func (r *slReader) maxLevel() int64 { return int64(r.levels[0]) }

func (r *slReader) atGroup() bool { return r.rec%r.minLevel() == 0 && r.rec < r.total }

// loadDict reads the window dictionary at a largest-level boundary.
func (r *slReader) loadDict() error {
	n, err := r.s.readUvarint()
	if err != nil {
		return fmt.Errorf("colfile: dict length: %w", err)
	}
	blob, err := r.s.readFull(int(n))
	if err != nil {
		return fmt.Errorf("colfile: dict body: %w", err)
	}
	dict, _, err := compress.ParseDictionary(blob)
	if err != nil {
		return err
	}
	compress.ChargeDecomp(r.stats, "dict", int64(n))
	r.dict = dict
	if r.schema.Kind == serde.KindString {
		clear(r.dictBoxed) // the last window's boxes; past its length all is nil
		r.dictBoxed = slices.Grow(r.dictBoxed[:0], dict.Len())[:dict.Len()]
	}
	return nil
}

// align consumes the skip group (discarding pointers) and window
// dictionary for the current record, leaving the cursor at its value.
func (r *slReader) align() error {
	if r.aligned {
		return nil
	}
	if r.atGroup() {
		k := levelsAt(r.levels, r.rec)
		if _, err := r.s.readFull(k * groupPtrSize); err != nil {
			return fmt.Errorf("colfile: skip group: %w", err)
		}
		if r.stats != nil {
			r.stats.SkippedBytes += int64(k * groupPtrSize)
		}
		if r.dcsl && r.rec%r.maxLevel() == 0 {
			if err := r.loadDict(); err != nil {
				return err
			}
		}
	}
	r.aligned = true
	return nil
}

func (r *slReader) Value() (any, error) {
	if r.rec >= r.total {
		return nil, fmt.Errorf("colfile: read past end (record %d of %d)", r.rec, r.total)
	}
	if err := r.align(); err != nil {
		return nil, err
	}
	// Skip-list values are length-prefixed (see writer.prefixed).
	n, err := r.s.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("colfile: value length: %w", err)
	}
	buf, err := r.s.readFull(int(n))
	if err != nil {
		return nil, fmt.Errorf("colfile: value body: %w", err)
	}
	var v any
	if r.dcsl {
		if r.dict == nil {
			return nil, fmt.Errorf("colfile: DCSL value before dictionary")
		}
		if r.schema.Kind != serde.KindMap {
			// Dictionary-encoded string/bytes: an empty blob is null,
			// otherwise the blob is the value's uvarint id.
			val, err := r.dictValue(buf)
			if err != nil {
				return nil, err
			}
			if r.stats != nil {
				compress.ChargeDecomp(r.stats, "dict", int64(len(buf)))
				r.stats.ValuesMaterialized++
			}
			r.rec++
			r.aligned = false
			return val, nil
		}
		m, err := r.dictMap(buf)
		if err != nil {
			return nil, err
		}
		v = m
	} else {
		r.dec.Init(buf, r.stats)
		val, err := r.dec.Value(r.schema)
		if err != nil {
			return nil, err
		}
		v = val
	}
	r.rec++
	r.aligned = false
	return v, nil
}

func (r *slReader) SkipTo(target int64) error {
	if target > r.total {
		return fmt.Errorf("colfile: skip to %d past end %d", target, r.total)
	}
	for r.rec < target {
		if !r.aligned && r.atGroup() {
			k := levelsAt(r.levels, r.rec)
			ptrs, err := r.s.readFull(k * groupPtrSize)
			if err != nil {
				return fmt.Errorf("colfile: skip group: %w", err)
			}
			// readFull's view aliases the window and a dictionary load can
			// refill it, so copy the pointers out first.
			r.ptrs = append(r.ptrs[:0], ptrs...)
			ptrs = r.ptrs
			if r.stats != nil {
				r.stats.SkippedBytes += int64(k * groupPtrSize)
			}
			// A DCSL block's dictionary is always read on entry — it is
			// the only part of a block a reader must touch. Spans are
			// measured from after it.
			if r.dcsl && r.rec%r.maxLevel() == 0 {
				if err := r.loadDict(); err != nil {
					return err
				}
			}
			// Use the largest applicable pointer. Pointers are stored
			// largest level first.
			used := false
			idx := 0
			for _, l := range r.levels {
				if r.rec%int64(l) != 0 {
					continue
				}
				if r.rec+int64(l) <= target && r.rec+int64(l) <= r.total {
					span := int64(binary.LittleEndian.Uint32(ptrs[idx*groupPtrSize:]))
					if err := r.s.skip(span); err != nil {
						return err
					}
					r.rec += int64(l)
					used = true
					break
				}
				idx++
			}
			if used {
				continue
			}
			// No pointer applies: group and dictionary are consumed; fall
			// through to walking values.
			r.aligned = true
		}
		if err := r.walkOne(); err != nil {
			return err
		}
	}
	return nil
}

// HasKey implements KeyProber for DCSL files. The group's Bloom filter is
// consulted first when present: a negative probe refutes the key for the
// whole record group from already-loaded (uncharged) metadata, before the
// reader even aligns on the record — cheaper than the dictionary walk and
// able to skip the window dictionary load entirely. Past the filter, the
// window dictionary is the union of every map key in the window, so a
// failed lookup refutes the whole window with one map access; a hit walks
// the current record's (id, value) pairs comparing ids, skipping element
// bytes, building no objects. The walk is priced as raw byte movement.
func (r *slReader) HasKey(key string) (bool, bool, error) {
	if !r.dcsl || r.schema.Kind != serde.KindMap || r.rec >= r.total {
		return false, false, nil
	}
	if key != r.probeKey {
		r.probeKey = key
		r.probeGroupEnd = 0
		r.probeWin = -1
	}
	if !r.noBloom {
		if r.rec >= r.probeGroupEnd {
			st, gEnd := r.GroupStats(r.rec)
			r.probeBloomNeg = st != nil && st.Bloom != nil && !st.Bloom.MayContainString(key)
			if gEnd <= r.rec {
				gEnd = r.rec + 1
			}
			r.probeGroupEnd = gEnd
		}
		if r.probeBloomNeg {
			return false, true, nil
		}
	}
	if err := r.align(); err != nil {
		return false, false, err
	}
	if r.dict == nil {
		return false, false, nil
	}
	if win := r.rec - r.rec%r.maxLevel(); win != r.probeWin {
		r.probeID, r.probeInWin = r.dict.ID(key)
		r.probeWin = win
	}
	id, inWindow := r.probeID, r.probeInWin
	if !inWindow {
		return false, true, nil
	}
	has, err := r.peekHasID(id)
	return has, err == nil, err
}

// peekHasID reports whether the map record at the cursor carries dictionary
// id, walking its (id, value) pairs comparing ids — skipping element bytes,
// building no objects, consuming nothing. The walk is priced as raw byte
// movement.
func (r *slReader) peekHasID(id uint32) (bool, error) {
	n, w, err := r.s.peekUvarint()
	if err != nil {
		return false, fmt.Errorf("colfile: probe length: %w", err)
	}
	buf, err := r.s.peekAt(w, int(n))
	if err != nil {
		return false, fmt.Errorf("colfile: probe body: %w", err)
	}
	d := &r.dec
	d.Init(buf, nil)
	count, err := readCount(d)
	if err != nil {
		return false, err
	}
	has := false
	for i := 0; i < count; i++ {
		got, err := readCount(d)
		if err != nil {
			return false, err
		}
		if uint32(got) == id {
			has = true
			break
		}
		if err := d.Skip(r.schema.Elem); err != nil {
			return false, err
		}
	}
	if r.stats != nil {
		r.stats.RawBytes += int64(d.Pos())
	}
	return has, nil
}

// walkOne advances past one value using its length prefix: a varint read
// and a forward seek, with no deserialization. (Contrast with Plain files,
// whose values carry no lengths and must be fully walked.)
func (r *slReader) walkOne() error {
	if err := r.align(); err != nil {
		return err
	}
	n, err := r.s.readUvarint()
	if err != nil {
		return fmt.Errorf("colfile: skip length: %w", err)
	}
	if err := r.s.skip(int64(n)); err != nil {
		return err
	}
	if r.stats != nil {
		r.stats.SkippedBytes += int64(n) + 1
	}
	r.rec++
	r.aligned = false
	return nil
}

// dictValue materializes one dictionary-encoded string/bytes value from
// its blob: empty means null, otherwise a uvarint id into the window
// dictionary. Looked-up strings are shared interned objects, boxed once per
// window; bytes columns copy them out since callers may mutate byte slices.
func (r *slReader) dictValue(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	id, n := binary.Uvarint(buf)
	if n <= 0 || n != len(buf) {
		return nil, fmt.Errorf("colfile: malformed dictionary id")
	}
	s, err := r.dict.Lookup(uint32(id))
	if err != nil {
		return nil, err
	}
	if r.schema.Kind == serde.KindBytes {
		return r.dec.Boxer().Bytes([]byte(s)), nil
	}
	if r.dictBoxed[id] == nil {
		r.dictBoxed[id] = r.dec.Boxer().String(s)
	}
	return r.dictBoxed[id], nil
}

// dictMap materializes and charges one DCSL map value from its blob.
func (r *slReader) dictMap(buf []byte) (map[string]any, error) {
	m, n, err := parseDictMap(&r.dec, buf, r.schema, r.dict)
	if err != nil {
		return nil, err
	}
	if r.stats != nil {
		compress.ChargeDecomp(r.stats, "dict", int64(n))
		r.stats.ValuesMaterialized += int64(len(m) + 1)
	}
	return m, nil
}

// parseDictMap materializes one dictionary-compressed map value from buf,
// returning it with the bytes it took. All bytes are charged at the
// dictionary-decode rate: key strings are shared interned objects, which is
// why the paper's DCSL decompression "proved to be extremely fast". Values
// come from the decoder, whose chunks hold their boxes and their payloads, so
// a map of short strings costs the map and a share of a chunk, not two
// allocations per entry.
func parseDictMap(d *serde.Decoder, buf []byte, schema *serde.Schema, dict *compress.Dictionary) (map[string]any, int, error) {
	d.Init(buf, nil)
	count, err := readCount(d)
	if err != nil {
		return nil, 0, err
	}
	m := make(map[string]any, count)
	for i := 0; i < count; i++ {
		id, err := readCount(d)
		if err != nil {
			return nil, 0, err
		}
		key, err := dict.Lookup(uint32(id))
		if err != nil {
			return nil, 0, err
		}
		if m[key], err = d.Value(schema.Elem); err != nil {
			return nil, 0, err
		}
	}
	return m, d.Pos(), nil
}

// readCount reads a raw uvarint (entry counts and dictionary ids).
func readCount(d *serde.Decoder) (int, error) {
	v, err := d.ReadUvarint()
	if err != nil {
		return 0, err
	}
	return int(v), nil
}
