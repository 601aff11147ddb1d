package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
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
	// Zones, when set, supplies the file's stats image on the first
	// GroupStats call — shared with every other reader of the file —
	// instead of the reader parsing its own (ReadZones).
	Zones ZoneSource
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
	zm := statsLoader{src: r, schema: schema, from: opts.Zones, size: statsLen}
	h, err := parseHeader(s)
	if err != nil {
		return nil, err
	}
	base := readerBase{statsLoader: zm, s: s, schema: schema, stats: stats, total: total}
	switch h.layout {
	case Plain:
		return &plainReader{readerBase: base}, nil
	case Block:
		codec, err := compress.ByName(h.codec)
		if err != nil {
			return nil, err
		}
		return &blockReader{readerBase: base, codec: codec}, nil
	case SkipList, DCSL:
		if len(h.levels) == 0 {
			return nil, fmt.Errorf("colfile: %s file with no levels", h.layout)
		}
		if err := validLevels(h.levels); err != nil {
			return nil, err
		}
		if h.layout == DCSL && schema.Kind != serde.KindMap &&
			schema.Kind != serde.KindString && schema.Kind != serde.KindBytes {
			return nil, fmt.Errorf("colfile: DCSL file for non-dictionary schema %s", schema.Kind)
		}
		return &slReader{
			readerBase: base,
			levels:     h.levels,
			dcsl:       h.layout == DCSL,
			noBloom:    opts.NoBloom,
			probeWin:   -1,
		}, nil
	}
	return nil, fmt.Errorf("colfile: unknown layout %v", h.layout)
}

// readerBase is what the three layouts' readers share: the cursor over the
// file's records, its end checks, and the entry every range call
// (vecdecode.go) goes through.
type readerBase struct {
	statsLoader
	s      *stream
	schema *serde.Schema
	stats  *sim.CPUStats
	dec    serde.Decoder // reused for every value: decoding allocates no decoder
	rec    int64
	total  int64
}

func (b *readerBase) Record() int64 { return b.rec }
func (b *readerBase) Total() int64  { return b.total }
func (b *readerBase) Release()      { b.s.release() }

// checkValue refuses a Value call with no record left at the cursor.
func (b *readerBase) checkValue() error {
	if b.rec >= b.total {
		return fmt.Errorf("colfile: read past end (record %d of %d)", b.rec, b.total)
	}
	return nil
}

// checkSkip refuses a SkipTo past the last record.
func (b *readerBase) checkSkip(target int64) error {
	if target > b.total {
		return fmt.Errorf("colfile: skip to %d past end %d", target, b.total)
	}
	return nil
}

// plainReader iterates concatenated values. Skipping walks every record's
// encoding at full decode cost — the paper's "no savings" degradation.
type plainReader struct{ readerBase }

func (p *plainReader) Value() (any, error) {
	if err := p.checkValue(); err != nil {
		return nil, err
	}
	v, err := decodeValue(p.s, &p.dec, p.schema, p.stats)
	if err != nil {
		return nil, err
	}
	p.rec++
	return v, nil
}

func (p *plainReader) SkipTo(target int64) error {
	if err := p.checkSkip(target); err != nil {
		return err
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
	readerBase
	codec compress.Codec

	// frame is the decompressed current frame. Its buffer is reused from
	// frame to frame, so nothing decoded may alias it: strings, byte slices
	// and map keys are copies.
	frame     []byte
	framePos  int
	frameLeft int // records remaining in current frame (incl. cursor's)
}

func (b *blockReader) readFrameHeader() (records, rawLen, compLen int, err error) {
	var h [3]uint64
	for i := range h {
		if h[i], err = b.s.readUvarint(); err != nil {
			return 0, 0, 0, fmt.Errorf("colfile: frame header: %w", err)
		}
	}
	return int(h[0]), int(h[1]), int(h[2]), nil
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
	if err := b.checkValue(); err != nil {
		return nil, err
	}
	if b.frameLeft == 0 {
		if err := b.loadFrame(); err != nil {
			return nil, err
		}
	}
	b.dec.Init(b.frame[b.framePos:], b.stats)
	v, err := b.dec.Value(b.schema)
	if err != nil {
		return nil, err
	}
	b.framePos += b.dec.Pos()
	b.frameLeft--
	b.rec++
	return v, nil
}

func (b *blockReader) SkipTo(target int64) error {
	if err := b.checkSkip(target); err != nil {
		return err
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
	readerBase
	levels  []int
	dcsl    bool
	noBloom bool

	aligned bool
	win     dictWindow // DCSL: the current window's dictionary
	ptrs    []byte     // readGroup's copy of the current group's skip pointers

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
	r.win.reset(dict, r.schema.Kind)
	return nil
}

// dictWindow is a DCSL reader's window dictionary with its memos of the
// entries handed out so far in the window. The view owns its bytes, so it
// outlives the stream window it was read from: id vectors keep it. The
// memos are the reader's, emptied at each window, and their strings are
// carved from the reader's boxer's payload chunk on an entry's first use.
type dictWindow struct {
	dict *compress.DictView
	// boxed[id] is a string column's entry id as Value hands it out (nil
	// until first used): a DCSL string column repeats few strings over
	// many rows.
	boxed []any
	// keys[id] is a map column's entry id as a map key ("" until first
	// used; an empty key is carved again, which costs nothing).
	keys []string
}

// reset makes dict the window's dictionary and empties the memo the
// column's kind uses.
func (w *dictWindow) reset(dict *compress.DictView, kind serde.Kind) {
	w.dict = dict
	switch kind {
	case serde.KindString:
		w.boxed = resetMemo(w.boxed, dict.Len())
	case serde.KindMap:
		w.keys = resetMemo(w.keys, dict.Len())
	}
}

// resetMemo empties memo and sizes it to n entries, keeping its storage:
// clearing the last window's entries leaves zero everything past them.
func resetMemo[T any](memo []T, n int) []T {
	clear(memo)
	return slices.Grow(memo[:0], n)[:n]
}

// value returns a string column's entry id boxed, carving and boxing it on
// its first use in the window.
func (w *dictWindow) value(bx *serde.Boxer, id uint32) (any, error) {
	if int(id) < len(w.boxed) && w.boxed[id] != nil {
		return w.boxed[id], nil
	}
	e, err := w.dict.Lookup(id)
	if err != nil {
		return nil, err
	}
	v := bx.String(bx.CopyString(e))
	w.boxed[id] = v
	return v, nil
}

// key returns a map column's entry id as a map key, carving it on its
// first use in the window.
func (w *dictWindow) key(bx *serde.Boxer, id uint32) (string, error) {
	if int(id) < len(w.keys) && w.keys[id] != "" {
		return w.keys[id], nil
	}
	e, err := w.dict.Lookup(id)
	if err != nil {
		return "", err
	}
	k := bx.CopyString(e)
	w.keys[id] = k
	return k, nil
}

// readGroup consumes the skip group at the cursor, returning a copy of its
// pointers (largest level first), and at a window start the DCSL window
// dictionary after it: a DCSL block's dictionary is always read on entry —
// it is the only part of a block a reader must touch — and spans are
// measured from after it.
func (r *slReader) readGroup() ([]byte, error) {
	k := levelsAt(r.levels, r.rec)
	ptrs, err := r.s.readFull(k * groupPtrSize)
	if err != nil {
		return nil, fmt.Errorf("colfile: skip group: %w", err)
	}
	// readFull's view aliases the window and a dictionary load can refill
	// it, so the pointers are copied out first.
	r.ptrs = append(r.ptrs[:0], ptrs...)
	if r.stats != nil {
		r.stats.SkippedBytes += int64(k * groupPtrSize)
	}
	if r.dcsl && r.rec%r.maxLevel() == 0 {
		if err := r.loadDict(); err != nil {
			return nil, err
		}
	}
	return r.ptrs, nil
}

// align consumes the skip group (discarding pointers) and window
// dictionary for the current record, leaving the cursor at its value.
func (r *slReader) align() error {
	if r.aligned {
		return nil
	}
	if r.atGroup() {
		if _, err := r.readGroup(); err != nil {
			return err
		}
	}
	r.aligned = true
	return nil
}

func (r *slReader) Value() (any, error) {
	if err := r.checkValue(); err != nil {
		return nil, err
	}
	if err := r.align(); err != nil {
		return nil, err
	}
	buf, err := r.readBlob()
	if err != nil {
		return nil, err
	}
	var v any
	switch {
	case !r.dcsl:
		r.dec.Init(buf, r.stats)
		v, err = r.dec.Value(r.schema)
	case r.schema.Kind == serde.KindMap:
		v, err = r.dictMap(buf)
	default:
		v, err = r.dictValue(buf)
	}
	if err != nil {
		return nil, err
	}
	r.rec++
	r.aligned = false
	return v, nil
}

// readBlob reads the length-prefixed value at the aligned cursor (see
// writer.prefixed), consuming it. The slice aliases the window.
func (r *slReader) readBlob() ([]byte, error) {
	n, err := r.s.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("colfile: value length: %w", err)
	}
	buf, err := r.s.readFull(int(n))
	if err != nil {
		return nil, fmt.Errorf("colfile: value body: %w", err)
	}
	return buf, nil
}

func (r *slReader) SkipTo(target int64) error {
	if err := r.checkSkip(target); err != nil {
		return err
	}
	for r.rec < target {
		if !r.aligned && r.atGroup() {
			ptrs, err := r.readGroup()
			if err != nil {
				return err
			}
			// Use the largest applicable pointer.
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
// failed lookup refutes the whole window with one dictionary search; a hit
// walks the current record's (id, value) pairs comparing ids, skipping
// element bytes, building no objects. The walk is priced as raw byte
// movement.
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
	if r.win.dict == nil {
		return false, false, nil
	}
	if win := r.rec - r.rec%r.maxLevel(); win != r.probeWin {
		r.probeID, r.probeInWin = r.win.dict.ResolveID(key)
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

// dictID parses one DCSL string/bytes blob: empty is null, otherwise the
// blob is the value's uvarint id into the window dictionary.
func (r *slReader) dictID(buf []byte) (id uint32, null bool, err error) {
	if r.win.dict == nil {
		return 0, false, fmt.Errorf("colfile: DCSL value before dictionary")
	}
	if len(buf) == 0 {
		return 0, true, nil
	}
	x, n := binary.Uvarint(buf)
	if n <= 0 || n != len(buf) || x > math.MaxUint32 {
		return 0, false, fmt.Errorf("colfile: malformed dictionary id")
	}
	return uint32(x), false, nil
}

// dictValue materializes and charges one dictionary-encoded string/bytes
// value from its blob. A string is carved and boxed once per window and
// shared by every row that repeats it; bytes columns copy each value out
// since callers may mutate byte slices.
func (r *slReader) dictValue(buf []byte) (any, error) {
	id, null, err := r.dictID(buf)
	if err != nil {
		return nil, err
	}
	var v any
	if !null {
		bx := r.dec.Boxer()
		if r.schema.Kind == serde.KindBytes {
			e, err := r.win.dict.Lookup(id)
			if err != nil {
				return nil, err
			}
			v = bx.Bytes(bx.CopyBytes(e))
		} else if v, err = r.win.value(bx, id); err != nil {
			return nil, err
		}
	}
	if r.stats != nil {
		compress.ChargeDecomp(r.stats, "dict", int64(len(buf)))
		r.stats.ValuesMaterialized++
	}
	return v, nil
}

// dictMap materializes and charges one DCSL map value from its blob.
func (r *slReader) dictMap(buf []byte) (map[string]any, error) {
	if r.win.dict == nil {
		return nil, fmt.Errorf("colfile: DCSL value before dictionary")
	}
	m, n, err := parseDictMap(&r.dec, buf, r.schema, &r.win)
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
// dictionary-decode rate: a key is carved once per window and shared by
// every map of the window that holds it, which is why the paper's DCSL
// decompression "proved to be extremely fast". Keys and values come from
// the decoder's boxer, whose chunks hold boxes and payloads, so a map of
// short strings costs the map and a share of a chunk, not two allocations
// per entry.
func parseDictMap(d *serde.Decoder, buf []byte, schema *serde.Schema, w *dictWindow) (map[string]any, int, error) {
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
		key, err := w.key(d.Boxer(), uint32(id))
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
