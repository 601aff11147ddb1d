package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"colmr/internal/compress"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Batch (vectorized) decode. Every layout can decode a contiguous record
// range into a scan.Vector in one pass over the same stream the scalar path
// uses — identical bytes read, identical refill behaviour — but primitive
// values land in flat typed storage charged to the vector-decode counters
// (CPUStats.VecBytes/VecValues) instead of the boxed per-object rates.
// Complex kinds (maps, arrays, nested records, DCSL maps) have one decode
// path: a range of them is the layout's own Value results, appended one by
// one, with Value's charges (readerBase.decodeVector) — vectorization wins
// control flow there, not object churn, and the cost model says so honestly.
// So does a vector marked scan.Vector.Boxed, whose rows exist only to be
// boxed into records: its primitive values are charged exactly what
// Reader.Value charges for them.
//
// Every range call — each layout's DecodeVector, DCSL's DecodeIDVector and
// ProbeKeys — enters through readerBase.within: the behind-cursor and
// past-end checks, the swap to the call's cpu sink, the skip to start. The
// cpu argument is an explicit per-call sink: a caller fanning per-column
// decodes across goroutines hands each call its own CPUStats and folds them
// afterwards, so no shared counter is written concurrently.

// VectorDecoder is implemented by column readers that can decode a record
// range into a vector. All colfile layouts implement it.
type VectorDecoder interface {
	// DecodeVector appends records [start, end) to v, advancing the cursor
	// to end. start must not precede the cursor (streams are forward-only).
	// CPU work for the whole call — skips, decompression, decode — is
	// charged to cpu (which may be nil).
	DecodeVector(start, end int64, v *scan.Vector, cpu *sim.CPUStats) error
}

// KeyVecProber is implemented by readers (DCSL) that can decide map-key
// existence for a whole record range from window dictionaries and skip
// pointers, without decoding a single map. ProbeKeys clears sel's bit i
// (relative to start: record start+i) for every selected record whose map
// lacks key, advancing the cursor to end. The dictionary is consulted once
// per window and the group Bloom filter once per group — a window- or
// group-level "absent" verdict clears its whole extent and jumps the
// cursor with skip pointers. answered is false (with sel and the cursor
// untouched) when the file cannot probe (non-DCSL layouts).
type KeyVecProber interface {
	ProbeKeys(key string, start, end int64, sel *scan.Selection, cpu *sim.CPUStats) (answered bool, err error)
}

// VecKindOf maps a column schema to its vector representation.
func VecKindOf(schema *serde.Schema) scan.VecKind {
	switch schema.Kind {
	case serde.KindBool:
		return scan.VecBool
	case serde.KindInt:
		return scan.VecInt32
	case serde.KindLong, serde.KindTime:
		return scan.VecInt64
	case serde.KindDouble:
		return scan.VecFloat64
	case serde.KindString:
		return scan.VecString
	case serde.KindBytes:
		return scan.VecBytes
	default:
		return scan.VecAny
	}
}

// vecAppendOne decodes one primitive value from buf into v, returning the
// encoded bytes consumed. It mirrors serde.Decoder.Value's wire format and
// never mutates v on error, so decodeRetry can re-invoke it on a grown
// window.
func vecAppendOne(buf []byte, schema *serde.Schema, v *scan.Vector) (int, error) {
	switch schema.Kind {
	case serde.KindBool:
		if len(buf) < 1 {
			return 0, fmt.Errorf("colfile: vector decode bool: short buffer")
		}
		x := int64(0)
		if buf[0] != 0 {
			x = 1
		}
		v.AppendInt(x)
		return 1, nil
	case serde.KindInt:
		x, n := binary.Varint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("colfile: vector decode int: short buffer")
		}
		if x > math.MaxInt32 || x < math.MinInt32 {
			return 0, fmt.Errorf("colfile: vector decode int: value %d overflows int32", x)
		}
		v.AppendInt(x)
		return n, nil
	case serde.KindLong, serde.KindTime:
		x, n := binary.Varint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("colfile: vector decode long: short buffer")
		}
		v.AppendInt(x)
		return n, nil
	case serde.KindDouble:
		if len(buf) < 8 {
			return 0, fmt.Errorf("colfile: vector decode double: short buffer")
		}
		v.AppendFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
		return 8, nil
	case serde.KindString, serde.KindBytes:
		l, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("colfile: vector decode length: short buffer")
		}
		if uint64(len(buf)-n) < l {
			return 0, fmt.Errorf("colfile: vector decode payload: short buffer")
		}
		switch p := buf[n : n+int(l)]; {
		case !v.Boxed || len(p) <= scan.BoxArenaMax:
			v.AppendBytes(p)
		case schema.Kind == serde.KindString:
			v.AppendSingle(string(p))
		default:
			v.AppendSingle(bytes.Clone(p))
		}
		return n + int(l), nil
	}
	return 0, fmt.Errorf("colfile: vector decode: unsupported kind %v", schema.Kind)
}

// chargeVec credits one vectorized value of n encoded bytes.
func chargeVec(cpu *sim.CPUStats, n int) {
	if cpu != nil {
		cpu.VecBytes += int64(n)
		cpu.VecValues++
	}
}

// chargeAppended credits values primitive values of n encoded bytes in all
// appended to v: at the vector rate, or — for a vector bound for boxing — to
// the counters serde.Decoder.Value charges for top-level values of that kind.
func chargeAppended(cpu *sim.CPUStats, v *scan.Vector, n, values int) {
	if cpu == nil {
		return
	}
	if !v.Boxed {
		cpu.VecBytes += int64(n)
		cpu.VecValues += int64(values)
		return
	}
	switch v.Kind {
	case scan.VecFloat64:
		cpu.DoubleBytes += int64(n)
	case scan.VecString:
		cpu.StringBytes += int64(n)
	case scan.VecBytes:
		cpu.RawBytes += int64(n)
	default:
		cpu.IntBytes += int64(n)
	}
	cpu.ValuesMaterialized += int64(values)
}

// within runs body as one range call over records [start, end) of r, the
// reader embedding b: it refuses a range behind the cursor or past the end,
// charges the whole call — the skip to start included — to the call's own
// cpu sink, and moves the cursor to start before body runs. what names the
// call in its errors.
func (b *readerBase) within(r Reader, what string, start, end int64, cpu *sim.CPUStats, body func() error) error {
	if start < b.rec {
		return fmt.Errorf("colfile: %s from %d behind cursor %d", what, start, b.rec)
	}
	if end > b.total {
		return fmt.Errorf("colfile: %s to %d past end %d", what, end, b.total)
	}
	saved := b.stats
	b.stats = cpu
	defer func() { b.stats = saved }()
	if err := r.SkipTo(start); err != nil {
		return err
	}
	return body()
}

// decodeVector is every layout's DecodeVector: a range of a VecAny column
// (maps, arrays, records, DCSL maps) is r's own Value results appended one by
// one — the one boxed decode path, charged exactly what Value charges — and
// any other range goes to the layout's typed loop.
func (b *readerBase) decodeVector(r Reader, start, end int64, v *scan.Vector, cpu *sim.CPUStats, typed func() error) error {
	return b.within(r, "vector decode", start, end, cpu, func() error {
		if VecKindOf(b.schema) != scan.VecAny {
			return typed()
		}
		for b.rec < end {
			val, err := r.Value()
			if err != nil {
				return err
			}
			v.AppendAny(val)
		}
		return nil
	})
}

// DecodeVector implements VectorDecoder.
func (p *plainReader) DecodeVector(start, end int64, v *scan.Vector, cpu *sim.CPUStats) error {
	return p.decodeVector(p, start, end, v, cpu, func() error {
		for p.rec < end {
			err := p.s.decodeRetry(func(buf []byte) (int, error) {
				n, err := vecAppendOne(buf, p.schema, v)
				if err != nil {
					return 0, err
				}
				chargeAppended(p.stats, v, n, 1)
				return n, nil
			})
			if err != nil {
				return err
			}
			p.rec++
		}
		return nil
	})
}

// DecodeVector implements VectorDecoder. Frames wholly behind start stay
// compressed (the scalar SkipTo's lazy decompression); touched frames
// decode in place from the decompressed buffer.
func (b *blockReader) DecodeVector(start, end int64, v *scan.Vector, cpu *sim.CPUStats) error {
	return b.decodeVector(b, start, end, v, cpu, func() error {
		for b.rec < end {
			if b.frameLeft == 0 {
				if err := b.loadFrame(); err != nil {
					return err
				}
			}
			n, err := vecAppendOne(b.frame[b.framePos:], b.schema, v)
			if err != nil {
				return err
			}
			chargeAppended(b.stats, v, n, 1)
			b.framePos += n
			b.frameLeft--
			b.rec++
		}
		return nil
	})
}

// DecodeVector implements VectorDecoder. Primitive skip-list values land in
// typed storage, a run at a time; DCSL strings expand through the window
// dictionary.
func (r *slReader) DecodeVector(start, end int64, v *scan.Vector, cpu *sim.CPUStats) error {
	return r.decodeVector(r, start, end, v, cpu, func() error {
		for r.rec < end {
			if err := r.align(); err != nil {
				return err
			}
			if !r.dcsl {
				from := r.rec
				if err := r.decodeRun(end, v); err != nil {
					return err
				}
				if r.rec > from {
					continue
				}
				// The value at the cursor runs past the buffered window, or
				// is malformed: the step below refills for it, or words the
				// error.
			}
			buf, err := r.readBlob()
			if err != nil {
				return err
			}
			if r.dcsl {
				if err := r.appendDictString(buf, v); err != nil {
					return err
				}
			} else {
				n, err := vecAppendOne(buf, r.schema, v)
				if err != nil {
					return err
				}
				if n != len(buf) {
					return fmt.Errorf("colfile: vector decode: value used %d of %d bytes", n, len(buf))
				}
				chargeAppended(r.stats, v, n, 1)
			}
			r.rec++
			r.aligned = false
		}
		return nil
	})
}

// appendDictString expands one DCSL string/bytes blob through the window
// dictionary. The expansion is what the dictionary-id path (DecodeIDVector)
// avoids — here the full string lands in the vector arena and is charged at
// the vector rate, or, bound for boxing, as the one materialized value (null
// or not) that Value counts.
func (r *slReader) appendDictString(buf []byte, v *scan.Vector) error {
	id, null, err := r.dictID(buf)
	if err != nil {
		return err
	}
	if v.Boxed && r.stats != nil {
		r.stats.ValuesMaterialized++
	}
	if null {
		v.AppendNull()
		return nil
	}
	e, err := r.win.dict.Lookup(id)
	if err != nil {
		return err
	}
	switch {
	case !v.Boxed || len(e) <= scan.BoxArenaMax:
		v.AppendBytes(e)
	case r.schema.Kind == serde.KindString:
		s, err := r.win.value(r.dec.Boxer(), id) // the string as Value hands it out
		if err != nil {
			return err
		}
		v.AppendSingle(s)
	default:
		v.AppendSingle(bytes.Clone(e))
	}
	if r.stats != nil {
		compress.ChargeDecomp(r.stats, "dict", int64(len(buf)))
	}
	if !v.Boxed {
		chargeVec(r.stats, len(e))
	}
	return nil
}

// decodeRun appends the primitive values from the aligned cursor up to the
// next skip-group boundary (or end) to v in one pass over the buffered
// window, consuming them at once: between two boundaries the stream is
// nothing but length-prefixed values, so none of them needs align's group
// test or a window check of its own. The run stops short at a value that
// does not lie wholly inside the window, leaving it at the cursor for the
// caller's value-at-a-time step; since every value it takes was already
// buffered, the stream refills exactly where that step alone would have.
// The values are charged together, each what that step charges it.
func (r *slReader) decodeRun(end int64, v *scan.Vector) (err error) {
	if g := r.rec - r.rec%r.minLevel() + r.minLevel(); g < end {
		end = g
	}
	kind := r.schema.Kind
	buf := r.s.view()
	from, off, charged := r.rec, 0, 0
	for r.rec < end && off < len(buf) {
		// The length prefix is one byte for every value under 128 bytes.
		l, w := uint64(buf[off]), 1
		if l >= 0x80 {
			if l, w = binary.Uvarint(buf[off:]); w <= 0 {
				break
			}
		}
		if uint64(len(buf)-off-w) < l {
			break
		}
		body := buf[off+w : off+w+int(l)]
		// A well-formed integer or short string appends here; anything else
		// — another kind, a payload bound for boxing on its own, a malformed
		// body — goes through vecAppendOne, which also words the errors.
		n := 0
		switch kind {
		case serde.KindInt, serde.KindLong, serde.KindTime:
			if x, m := binary.Varint(body); m == len(body) && (kind != serde.KindInt || int64(int32(x)) == x) {
				v.AppendInt(x)
				n = m
			}
		case serde.KindString, serde.KindBytes:
			if pl, pw := binary.Uvarint(body); pw > 0 && uint64(len(body)-pw) == pl && !(v.Boxed && pl > scan.BoxArenaMax) {
				v.AppendBytes(body[pw:])
				n = len(body)
			}
		}
		if n == 0 {
			if n, err = vecAppendOne(body, r.schema, v); err == nil && n != len(body) {
				err = fmt.Errorf("colfile: vector decode: value used %d of %d bytes", n, len(body))
			}
			if err != nil {
				break
			}
		}
		charged += n
		off += w + n
		r.rec++
	}
	if r.rec > from {
		r.s.consume(off)
		r.aligned = false
		chargeAppended(r.stats, v, charged, int(r.rec-from))
	}
	return err
}

// IDVectorDecoder is implemented by readers (DCSL string/bytes) that can
// decode a record range as dictionary ids instead of values: the ids are a
// fraction of the string bytes, and equality predicates compare ids
// directly (scan.IDVector). answered is false (with iv and the cursor
// untouched) when the column's storage is not dictionary-encoded scalars —
// other layouts, or DCSL map columns whose values are id *sets*.
type IDVectorDecoder interface {
	DecodeIDVector(start, end int64, iv *scan.IDVector, cpu *sim.CPUStats) (answered bool, err error)
}

// DecodeIDVector implements IDVectorDecoder for DCSL string/bytes columns.
// Each window contributes one IDSegment carrying its dictionary, so the
// evaluator resolves a needle once per window. Only the id bytes are
// charged — no dictionary expansion happens.
func (r *slReader) DecodeIDVector(start, end int64, iv *scan.IDVector, cpu *sim.CPUStats) (bool, error) {
	if !r.dcsl || r.schema.Kind == serde.KindMap {
		return false, nil
	}
	err := r.within(r, "id decode", start, end, cpu, func() error {
		var (
			segDict  *compress.DictView
			segStart = iv.Len()
			curWin   = int64(-1)
		)
		for r.rec < end {
			if err := r.align(); err != nil {
				return err
			}
			if win := r.rec - r.rec%r.maxLevel(); win != curWin {
				if curWin != -1 {
					iv.CloseSegment(segStart, segDict)
					segStart = iv.Len()
				}
				curWin = win
				segDict = r.win.dict
			}
			buf, err := r.readBlob()
			if err != nil {
				return err
			}
			id, null, err := r.dictID(buf)
			if err != nil {
				return err
			}
			if null {
				iv.AppendNull()
			} else {
				iv.AppendID(id)
				chargeVec(r.stats, len(buf))
			}
			r.rec++
			r.aligned = false
		}
		iv.CloseSegment(segStart, segDict)
		return nil
	})
	return err == nil, err
}

// ProbeKeys implements KeyVecProber for DCSL files.
func (r *slReader) ProbeKeys(key string, start, end int64, sel *scan.Selection, cpu *sim.CPUStats) (bool, error) {
	if !r.dcsl {
		return false, nil
	}
	err := r.within(r, "key probe", start, end, cpu, func() error {
		var (
			id       uint32
			inWindow bool
			curWin   = int64(-1)
		)
		// refute clears the records from the cursor up to to (at most end)
		// and jumps the cursor there with the skip pointers.
		refute := func(to int64) error {
			to = min(to, end)
			for i := r.rec; i < to; i++ {
				sel.Clear(int(i - start))
			}
			return r.SkipTo(to)
		}
		for r.rec < end {
			// Group tier: one Bloom probe refutes the key for the whole group
			// from already-loaded (uncharged) metadata.
			if !r.noBloom {
				if st, gEnd := r.GroupStats(r.rec); st != nil && st.Bloom != nil && !st.Bloom.MayContainString(key) {
					if err := refute(gEnd); err != nil {
						return err
					}
					continue
				}
			}
			if err := r.align(); err != nil {
				return err
			}
			if r.win.dict == nil {
				return fmt.Errorf("colfile: DCSL probe before dictionary")
			}
			win := r.rec - r.rec%r.maxLevel()
			if win != curWin {
				// Window tier: the dictionary is the union of every key in the
				// window, so one lookup decides the id for the whole window —
				// or refutes all of it.
				id, inWindow = r.win.dict.ResolveID(key)
				curWin = win
			}
			if !inWindow {
				if err := refute(win + r.maxLevel()); err != nil {
					return err
				}
				continue
			}
			if sel.Test(int(r.rec - start)) {
				// Record tier: the id walk HasKey uses.
				has, err := r.peekHasID(id)
				if err != nil {
					return err
				}
				if !has {
					sel.Clear(int(r.rec - start))
				}
			}
			if err := r.walkOne(); err != nil {
				return err
			}
		}
		return nil
	})
	return err == nil, err
}
