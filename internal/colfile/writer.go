package colfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"colmr/internal/compress"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// scratch is the memory a column writer works in between values: the
// statistics under construction and the staging buffers of its layout.
// Writers are short-lived — a memtable flush opens one per column every few
// hundred records — so the memory is not: it comes from a process-wide
// pool at NewWriter and returns at Close, and a writer starts with the
// capacity its predecessors grew.
type scratch struct {
	stats statsWriter

	// arena stages encoded values. Plain: the value being written. Block:
	// the current frame's values, back to back. SkipList/DCSL: the current
	// window's length-prefixed values, value i at arena[spans[i].lo:
	// spans[i].hi] (a few bytes of slack before each, see stage).
	arena []byte
	spans []span
	// out is what goes to the file in one Write: a compressed frame, a
	// window with its skip pointers, the stats section and footer.
	out []byte
	// boxed holds a DCSL window's values until its dictionary is complete.
	boxed []any
	// geom is the geometry a window is laid out with (entity starts, value
	// bases); keys a map value's keys, sorted.
	geom []int64
	keys []string
}

type span struct{ lo, hi int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release returns the scratch to the pool holding no reference to the
// file it served.
func (sc *scratch) release() {
	sc.stats.reset()
	clear(sc.boxed)
	clear(sc.keys)
	sc.boxed, sc.keys = sc.boxed[:0], sc.keys[:0]
	sc.arena, sc.spans, sc.out = sc.arena[:0], sc.spans[:0], sc.out[:0]
	scratchPool.Put(sc)
}

var errClosed = errors.New("colfile: writer is closed")

// NewWriter creates a column file writer for one column of the given value
// schema. Serialization work is charged to stats as raw byte movement;
// compression work is charged per codec.
func NewWriter(w io.Writer, schema *serde.Schema, opts Options, stats *sim.CPUStats) (Writer, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if opts.Layout == DCSL && schema.Kind != serde.KindMap &&
		schema.Kind != serde.KindString && schema.Kind != serde.KindBytes {
		return nil, fmt.Errorf("colfile: DCSL layout requires a map, string, or bytes column, got %s", schema.Kind)
	}
	var codec compress.Codec
	if opts.Layout == Block {
		var err error
		if codec, err = compress.ByName(opts.Codec); err != nil {
			return nil, err
		}
	} else if opts.Layout > DCSL {
		return nil, fmt.Errorf("colfile: unsupported layout %v", opts.Layout)
	}
	h := header{layout: opts.Layout, levels: opts.Levels, codec: opts.Codec}
	if opts.Layout == Plain || opts.Layout == SkipList || opts.Layout == DCSL {
		h.codec = "none"
	}
	if opts.Layout == Plain || opts.Layout == Block {
		h.levels = nil
	}
	sc := scratchPool.Get().(*scratch)
	sc.out = appendHeader(sc.out[:0], h)
	if _, err := w.Write(sc.out); err != nil {
		sc.release()
		return nil, err
	}
	every := opts.StatsEvery
	if opts.Layout == Block && every > 0 {
		// Block groups follow frame boundaries, so the statistics are cut
		// externally at each frame rather than on a record cadence.
		every = 0
	}
	base := writerBase{w: w, schema: schema, stats: stats, sc: sc,
		zm: newStatsWriter(&sc.stats, schema, every, opts.NoBloom)}
	switch opts.Layout {
	case Plain:
		return &plainWriter{writerBase: base}, nil
	case Block:
		return &blockWriter{writerBase: base, codec: codec, blockBytes: opts.BlockBytes}, nil
	default:
		return &slWriter{writerBase: base, levels: opts.Levels, dcsl: opts.Layout == DCSL}, nil
	}
}

// writerBase is what the three layouts' writers share.
type writerBase struct {
	w      io.Writer
	schema *serde.Schema
	stats  *sim.CPUStats
	sc     *scratch     // nil once closed
	zm     *statsWriter // &sc.stats, or nil when statistics are disabled
	count  int64
}

func (b *writerBase) Count() int64 { return b.count }

// finish finalizes a writer: after out — the layout's last window or frame,
// staged in the scratch's out buffer — it emits the zone-map stats section
// (the whole-file aggregate plus per-group entries) and the footer recording
// the record count and stats length, all in one Write, and gives the scratch
// back. One Write lets the file's last block grow once: a footer written
// after a large window would make the block regrow and copy.
func (b *writerBase) finish(out []byte) error {
	sc, zm := b.sc, b.zm
	b.sc, b.zm = nil, nil
	defer sc.release()
	start := len(out)
	out, err := zm.finish(out)
	if err != nil {
		return err
	}
	sc.out = appendFooter(out, b.count, len(out)-start)
	_, err = b.w.Write(sc.out)
	return err
}

// chargeEncode prices serialization on the load path as raw byte movement.
func chargeEncode(stats *sim.CPUStats, n int) {
	if stats != nil {
		stats.RawBytes += int64(n)
	}
}

// plainWriter appends concatenated self-delimiting values.
type plainWriter struct{ writerBase }

func (p *plainWriter) Append(v any) error {
	if p.sc == nil {
		return errClosed
	}
	buf, err := serde.AppendValue(p.sc.arena[:0], p.schema, v)
	if err != nil {
		return err
	}
	p.sc.arena = buf
	chargeEncode(p.stats, len(buf))
	if _, err := p.w.Write(buf); err != nil {
		return err
	}
	p.zm.observe(v)
	p.count++
	return nil
}

func (p *plainWriter) Close() error {
	if p.sc == nil {
		return errClosed
	}
	return p.finish(p.sc.out[:0])
}

// blockWriter accumulates encoded values and emits compressed frames.
type blockWriter struct {
	writerBase
	codec      compress.Codec
	blockBytes int
	records    int
}

func (b *blockWriter) Append(v any) error {
	if b.sc == nil {
		return errClosed
	}
	raw := b.sc.arena
	buf, err := serde.AppendValue(raw, b.schema, v)
	if err != nil {
		return err
	}
	chargeEncode(b.stats, len(buf)-len(raw))
	b.sc.arena = buf
	b.zm.observe(v)
	b.records++
	b.count++
	if len(buf) >= b.blockBytes {
		frame, err := b.frame()
		if err != nil {
			return err
		}
		_, err = b.w.Write(frame)
		return err
	}
	return nil
}

// frame compresses the staged values into the scratch's out buffer and
// returns it (empty when nothing is staged).
func (b *blockWriter) frame() ([]byte, error) {
	if b.records == 0 {
		return b.sc.out[:0], nil
	}
	frame, err := compress.AppendFrame(b.sc.out[:0], b.codec, b.records, b.sc.arena, b.stats)
	if err != nil {
		return nil, err
	}
	b.sc.out = frame
	// One stats group per frame: pruning a group skips exactly one
	// decompression.
	b.zm.cut()
	b.sc.arena = b.sc.arena[:0]
	b.records = 0
	return frame, nil
}

func (b *blockWriter) Close() error {
	if b.sc == nil {
		return errClosed
	}
	frame, err := b.frame()
	if err != nil {
		return err
	}
	return b.finish(frame)
}

// slWriter builds skip-list (and dictionary compressed skip-list) files.
// HDFS is append-only, so skip pointers cannot be patched in after the
// fact: the writer double-buffers one largest-level window of values,
// computes every pointer's span, and only then emits bytes — the same
// double-buffering the paper describes in Appendix B.3, with the largest
// skip bounded by memory. The window is staged encoded in the scratch
// arena (SkipList) or still boxed (DCSL, whose encoding needs the window's
// finished dictionary and lands in the same arena when the window is laid
// out).
type slWriter struct {
	writerBase
	levels []int
	dcsl   bool
}

func (s *slWriter) maxLevel() int { return s.levels[0] }
func (s *slWriter) minLevel() int { return s.levels[len(s.levels)-1] }

func (s *slWriter) Append(v any) error {
	if s.sc == nil {
		return errClosed
	}
	window := 0
	if s.dcsl {
		switch s.schema.Kind {
		case serde.KindMap:
			if _, ok := v.(map[string]any); !ok {
				return fmt.Errorf("colfile: DCSL append: value %T is not a map", v)
			}
		case serde.KindString:
			if _, ok := v.(string); !ok && v != nil {
				return fmt.Errorf("colfile: DCSL append: value %T is not a string", v)
			}
		default: // serde.KindBytes
			if _, ok := v.([]byte); !ok && v != nil {
				return fmt.Errorf("colfile: DCSL append: value %T is not bytes", v)
			}
		}
		s.sc.boxed = append(s.sc.boxed, v)
		window = len(s.sc.boxed)
	} else {
		base := s.reserve()
		buf, err := serde.AppendValue(s.sc.arena, s.schema, v)
		if err != nil {
			s.sc.arena = s.sc.arena[:base]
			return err
		}
		s.sc.arena = buf
		s.stage(base)
		window = len(s.sc.spans)
	}
	s.zm.observe(v)
	s.count++
	if window == s.maxLevel() {
		out, err := s.window()
		if err != nil {
			return err
		}
		_, err = s.w.Write(out)
		return err
	}
	return nil
}

// Skip-list files carry per-value lengths so that skipping a single record
// costs a length read and a seek instead of a full decode — the property
// that lets CIF-SL's map time collapse to near-pure I/O in Table 1. The
// length is known only once the value is encoded, so reserve leaves room
// for the longest prefix, the value is encoded after it, and stage writes
// the prefix flush against the value: one copy into the arena, no second
// buffer, at the price of a few slack bytes between staged values.
var prefixRoom [binary.MaxVarintLen64]byte

// reserve opens the next staged value: it returns where the value's slot
// begins and leaves the arena ready for the encoding.
func (s *slWriter) reserve() (base int) {
	base = len(s.sc.arena)
	s.sc.arena = append(s.sc.arena, prefixRoom[:]...)
	return base
}

// stage closes the staged value whose slot began at base: it charges the
// encoding, length-prefixes it in place and records its span. It returns
// the encoded length.
func (s *slWriter) stage(base int) int {
	sc := s.sc
	n := len(sc.arena) - base - len(prefixRoom)
	chargeEncode(s.stats, n)
	var prefix [len(prefixRoom)]byte
	k := binary.PutUvarint(prefix[:], uint64(n))
	lo := base + len(prefixRoom) - k
	copy(sc.arena[lo:], prefix[:k])
	sc.spans = append(sc.spans, span{lo, len(sc.arena)})
	return n
}

func (s *slWriter) Close() error {
	if s.sc == nil {
		return errClosed
	}
	out, err := s.window()
	if err != nil {
		return err
	}
	return s.finish(out)
}

// encodeDCSL builds the window dictionary and stages the boxed values with
// dictionary-compressed keys (map columns) or as bare dictionary ids
// (string/bytes columns; nulls encode as an empty value blob, which no
// non-null value produces since an id is at least one byte). It returns the
// length-prefixed dictionary.
func (s *slWriter) encodeDCSL() ([]byte, error) {
	sc := s.sc
	dict := compress.NewDictionary()
	mapCol := s.schema.Kind == serde.KindMap
	if !mapCol {
		// Sorted insertion keeps the id assignment — and so the file
		// bytes — deterministic for identical data.
		for _, v := range stringsSorted(sc.boxed) {
			dict.Add(v)
		}
	}
	var rawTotal int64
	for _, v := range sc.boxed {
		base := s.reserve()
		var err error
		if mapCol {
			// A key's id is its rank of first appearance, records in order
			// and keys sorted within a record, so a map can be encoded as
			// soon as its own keys are in: every id it needs is final.
			sc.arena, err = s.appendDictMap(sc.arena, dict, v.(map[string]any))
		} else {
			sc.arena, err = appendDictValue(sc.arena, dict, v)
		}
		if err != nil {
			sc.arena, sc.spans = sc.arena[:0], sc.spans[:0]
			return nil, err
		}
		rawTotal += int64(s.stage(base))
	}
	compress.ChargeComp(s.stats, "dict", rawTotal)
	body := dict.Append(nil)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...), nil
}

// window lays the buffered window out in the scratch's out buffer — skip
// groups, the window dictionary (DCSL), and values — empties the window and
// returns the bytes (none when the window is empty).
func (s *slWriter) window() ([]byte, error) {
	sc := s.sc
	var dictBlob []byte
	if s.dcsl && len(sc.boxed) > 0 {
		var err error
		if dictBlob, err = s.encodeDCSL(); err != nil {
			return nil, err
		}
	}
	w := len(sc.spans)
	if w == 0 {
		return sc.out[:0], nil
	}
	windowBase := s.count - int64(w)

	// Entity geometry: entityStart[i] is the window-relative offset of
	// record i's entity (group, then dictionary, then value);
	// entityStart[w] is the window's total size, where the next window's
	// first group begins. Skip spans are measured from valueBase — after
	// the group AND the window dictionary — because a DCSL reader always
	// loads the dictionary before following a pointer (the dictionary is
	// the only part of a block that must be read to enter it).
	sc.geom = slices.Grow(sc.geom[:0], 2*w+1)[:2*w+1]
	entityStart, valueBase := sc.geom[:w+1], sc.geom[w+1:]
	cur := int64(0)
	for i, sp := range sc.spans {
		rec := windowBase + int64(i)
		entityStart[i] = cur
		if rec%int64(s.minLevel()) == 0 {
			cur += int64(groupPtrSize * levelsAt(s.levels, rec))
		}
		if s.dcsl && rec%int64(s.maxLevel()) == 0 {
			cur += int64(len(dictBlob))
		}
		valueBase[i] = cur
		cur += int64(sp.hi - sp.lo)
	}
	entityStart[w] = cur

	// Double-buffering cost: the window's bytes are staged once more
	// before hitting the writer.
	chargeEncode(s.stats, int(cur))

	out := slices.Grow(sc.out[:0], int(cur))
	for i, sp := range sc.spans {
		rec := windowBase + int64(i)
		if rec%int64(s.minLevel()) == 0 {
			for _, l := range s.levels {
				if rec%int64(l) != 0 {
					continue
				}
				end := i + l
				if end > w {
					end = w
				}
				span := entityStart[end] - valueBase[i]
				if span < 0 || span > 0xFFFFFFFF {
					return nil, fmt.Errorf("colfile: skip span %d out of range at record %d level %d", span, rec, l)
				}
				out = binary.LittleEndian.AppendUint32(out, uint32(span))
			}
		}
		if s.dcsl && rec%int64(s.maxLevel()) == 0 {
			out = append(out, dictBlob...)
		}
		out = append(out, sc.arena[sp.lo:sp.hi]...)
	}
	sc.out = out
	if int64(len(out)) != cur {
		return nil, fmt.Errorf("colfile: window geometry mismatch: wrote %d, computed %d", len(out), cur)
	}
	clear(sc.boxed)
	sc.arena, sc.spans, sc.boxed = sc.arena[:0], sc.spans[:0], sc.boxed[:0]
	return out, nil
}

// appendDictMap encodes a map value with dictionary-compressed keys,
// entering keys the window has not seen into its dictionary: uvarint count,
// then (uvarint keyID, encoded element) pairs in sorted key order.
func (s *slWriter) appendDictMap(dst []byte, dict *compress.Dictionary, m map[string]any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	s.sc.keys = appendSortedKeys(s.sc.keys[:0], m)
	var err error
	for _, k := range s.sc.keys {
		dst = binary.AppendUvarint(dst, uint64(dict.Add(k)))
		dst, err = serde.AppendValue(dst, s.schema.Elem, m[k])
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendDictValue encodes one string/bytes value as its dictionary id
// (uvarint). Null values encode as nothing: the record's length prefix is
// zero, a spelling no non-null value shares.
func appendDictValue(dst []byte, dict *compress.Dictionary, v any) ([]byte, error) {
	s, ok := dictNeedle(v)
	if !ok {
		return dst, nil // null
	}
	id, present := dict.ID(s)
	if !present {
		return dst, fmt.Errorf("colfile: dict missing value %q", s)
	}
	return binary.AppendUvarint(dst, uint64(id)), nil
}

// dictNeedle views a string/bytes value as a dictionary string; ok is
// false for null.
func dictNeedle(v any) (string, bool) {
	switch x := v.(type) {
	case string:
		return x, true
	case []byte:
		return string(x), true
	}
	return "", false
}

// stringsSorted returns the window's distinct non-null values in sorted
// order for deterministic dictionary construction.
func stringsSorted(vals []any) []string {
	seen := make(map[string]struct{}, len(vals))
	out := make([]string, 0, len(vals))
	for _, v := range vals {
		if s, ok := dictNeedle(v); ok {
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out
}

// appendSortedKeys appends m's keys to dst in sorted order.
func appendSortedKeys(dst []string, m map[string]any) []string {
	for k := range m {
		dst = append(dst, k)
	}
	// Insertion sort: key universes are small by construction.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}
