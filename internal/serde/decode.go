package serde

import (
	"encoding/binary"
	"fmt"
	"math"

	"colmr/internal/sim"
)

// Decoder reads encoded values from a byte buffer and accumulates
// per-type deserialization counters.
//
// Counter attribution matches the paper's cost structure (Section 3.2,
// Figure 8): primitive values are charged to their own type's counter
// (IntBytes, DoubleBytes, StringBytes, RawBytes for byte arrays) whether
// they sit at the top level or inside arrays and nested records — in Java
// an Integer in an array costs the same boxing as an Integer field. Maps
// are the expensive case: everything inside a map, keys and values alike,
// is charged to MapBytes, the entry-object/hash-insert churn rate that
// Figure 8 shows dropping below disk bandwidth.
//
// Charging is transactional per top-level call (Value, Record, Scan, Skip):
// the call's charges accumulate in the decoder by value and reach the stats
// sink only when it succeeds, so a decode that fails — a caller retrying a
// short window, corrupt input — pollutes no counter, and no caller needs a
// scratch CPUStats of its own to get that.
type Decoder struct {
	buf   []byte
	pos   int
	stats *sim.CPUStats
	depth int     // >0 while inside a map value
	n     charges // charges of the top-level call in progress
	// box boxes every primitive the decoder materializes, top-level or a map
	// or array element. It outlives Init and Reset: its chunks belong to the
	// values already handed out and to the ones still to come, never to a
	// buffer, so pointing the decoder at new input touches no earlier result.
	box Boxer
}

// charges is the subset of sim.CPUStats a decoder can touch.
type charges struct {
	raw, ints, doubles, strs, maps, skipped, values int64
}

// NewDecoder returns a decoder over buf. Stats may be nil to disable
// accounting.
func NewDecoder(buf []byte, stats *sim.CPUStats) *Decoder {
	return &Decoder{buf: buf, stats: stats}
}

// Init points d at buf with the given stats sink (nil disables accounting).
// A reader that decodes value after value embeds one Decoder and re-Inits
// it, so decoding allocates no decoder.
func (d *Decoder) Init(buf []byte, stats *sim.CPUStats) {
	d.buf, d.pos, d.stats, d.depth, d.n = buf, 0, stats, 0, charges{}
}

// Reset repoints the decoder at a new buffer, keeping the stats sink.
func (d *Decoder) Reset(buf []byte) {
	d.Init(buf, d.stats)
}

// Boxer returns the decoder's boxer, for a layered format (dictionary-
// compressed maps) to box the values it decodes itself as the decoder boxes
// its own.
func (d *Decoder) Boxer() *Boxer { return &d.box }

// Pos returns the current byte offset.
func (d *Decoder) Pos() int { return d.pos }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) fail(what string) error {
	return fmt.Errorf("serde: decode %s at offset %d: truncated or corrupt input", what, d.pos)
}

func (d *Decoder) charge(kind Kind, n int) {
	if d.depth > 0 {
		d.n.maps += int64(n)
		return
	}
	switch kind {
	case KindBool, KindInt, KindLong, KindTime:
		d.n.ints += int64(n)
	case KindDouble:
		d.n.doubles += int64(n)
	case KindString:
		d.n.strs += int64(n)
	case KindBytes:
		d.n.raw += int64(n)
	default:
		d.n.maps += int64(n)
	}
}

// chargeHeader attributes structural bytes (array counts) to varint work.
func (d *Decoder) chargeHeader(n int) {
	if d.depth > 0 {
		d.n.maps += int64(n)
		return
	}
	d.n.ints += int64(n)
}

func (d *Decoder) materialized() { d.n.values++ }

// settle closes a top-level call: success commits its charges to the sink,
// failure drops them.
func (d *Decoder) settle(err error) error {
	if st := d.stats; err == nil && st != nil {
		st.RawBytes += d.n.raw
		st.IntBytes += d.n.ints
		st.DoubleBytes += d.n.doubles
		st.StringBytes += d.n.strs
		st.MapBytes += d.n.maps
		st.SkippedBytes += d.n.skipped
		st.ValuesMaterialized += d.n.values
	}
	d.n = charges{}
	return err
}

// Value decodes one value of schema s, materializing the documented Go
// representation ("boxed" decoding — the Java analogue).
func (d *Decoder) Value(s *Schema) (any, error) {
	v, err := d.value(s)
	return v, d.settle(err)
}

func (d *Decoder) value(s *Schema) (any, error) {
	start := d.pos
	switch s.Kind {
	case KindBool:
		if d.pos >= len(d.buf) {
			return nil, d.fail("bool")
		}
		b := d.buf[d.pos] != 0
		d.pos++
		d.charge(s.Kind, 1)
		d.materialized()
		return b, nil
	case KindInt:
		v, n := binary.Varint(d.buf[d.pos:])
		if n <= 0 {
			return nil, d.fail("int")
		}
		d.pos += n
		d.charge(s.Kind, n)
		d.materialized()
		if v > math.MaxInt32 || v < math.MinInt32 {
			return nil, fmt.Errorf("serde: decode int at offset %d: value %d overflows int32", start, v)
		}
		return d.box.Int32(int32(v)), nil
	case KindLong, KindTime:
		v, n := binary.Varint(d.buf[d.pos:])
		if n <= 0 {
			return nil, d.fail("long")
		}
		d.pos += n
		d.charge(s.Kind, n)
		d.materialized()
		return d.box.Int64(v), nil
	case KindDouble:
		if d.pos+8 > len(d.buf) {
			return nil, d.fail("double")
		}
		bits := binary.LittleEndian.Uint64(d.buf[d.pos:])
		d.pos += 8
		d.charge(s.Kind, 8)
		d.materialized()
		return d.box.Float64(math.Float64frombits(bits)), nil
	case KindString:
		b, n, err := d.lengthPrefixed("string")
		if err != nil {
			return nil, err
		}
		d.charge(s.Kind, n)
		d.materialized()
		return d.box.String(string(b)), nil
	case KindBytes:
		b, n, err := d.lengthPrefixed("bytes")
		if err != nil {
			return nil, err
		}
		d.charge(s.Kind, n)
		d.materialized()
		out := make([]byte, len(b))
		copy(out, b)
		return d.box.Bytes(out), nil
	case KindArray:
		count, n, err := d.uvarint("array count")
		if err != nil {
			return nil, err
		}
		d.chargeHeader(n)
		if count > uint64(d.Remaining()) {
			return nil, d.fail("array count")
		}
		arr := make([]any, 0, count)
		for i := uint64(0); i < count; i++ {
			e, err := d.value(s.Elem)
			if err != nil {
				return nil, err
			}
			arr = append(arr, e)
		}
		d.materialized()
		return arr, nil
	case KindMap:
		// In a helper, depth restored by hand: a defer here would not be
		// open-coded and would run on every return, ints and strings too.
		d.depth++
		m, err := d.mapValue(s)
		d.depth--
		return m, err
	case KindRecord:
		rec := NewRecord(s)
		for i, f := range s.Fields {
			v, err := d.value(f.Type)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", f.Name, err)
			}
			rec.values[i] = v
		}
		d.materialized()
		return rec, nil
	}
	return nil, fmt.Errorf("serde: decode: unknown kind %v", s.Kind)
}

// mapValue decodes a map's entries; the caller holds depth raised.
func (d *Decoder) mapValue(s *Schema) (any, error) {
	count, n, err := d.uvarint("map count")
	if err != nil {
		return nil, err
	}
	d.charge(s.Kind, n)
	if count > uint64(d.Remaining()) {
		return nil, d.fail("map count")
	}
	m := make(map[string]any, count)
	for i := uint64(0); i < count; i++ {
		kb, kn, err := d.lengthPrefixed("map key")
		if err != nil {
			return nil, err
		}
		d.charge(KindMap, kn)
		d.materialized()
		v, err := d.value(s.Elem)
		if err != nil {
			return nil, err
		}
		m[string(kb)] = v
	}
	d.materialized()
	return m, nil
}

// Record decodes a full record of schema s.
func (d *Decoder) Record(s *Schema) (*GenericRecord, error) {
	v, err := d.Value(s)
	if err != nil {
		return nil, err
	}
	rec, ok := v.(*GenericRecord)
	if !ok {
		return nil, fmt.Errorf("serde: decode: schema is not a record")
	}
	if d.stats != nil {
		d.stats.RecordsMaterialized++
	}
	return rec, nil
}

// Scan walks one value of schema s without materializing objects, charging
// the same per-type byte counters as Value ("view" decoding — the C++
// analogue; price with sim.CostModel.ViewCPUSeconds). Tests assert Scan and
// Value consume identical bytes and charge identical counters.
func (d *Decoder) Scan(s *Schema) error {
	return d.settle(d.scan(s))
}

func (d *Decoder) scan(s *Schema) error {
	switch s.Kind {
	case KindBool:
		if d.pos >= len(d.buf) {
			return d.fail("bool")
		}
		d.pos++
		d.charge(s.Kind, 1)
		return nil
	case KindInt, KindLong, KindTime:
		_, n := binary.Varint(d.buf[d.pos:])
		if n <= 0 {
			return d.fail("varint")
		}
		d.pos += n
		d.charge(s.Kind, n)
		return nil
	case KindDouble:
		if d.pos+8 > len(d.buf) {
			return d.fail("double")
		}
		d.pos += 8
		d.charge(s.Kind, 8)
		return nil
	case KindString, KindBytes:
		_, n, err := d.lengthPrefixed(s.Kind.String())
		if err != nil {
			return err
		}
		d.charge(s.Kind, n)
		return nil
	case KindArray:
		count, n, err := d.uvarint("array count")
		if err != nil {
			return err
		}
		d.chargeHeader(n)
		if count > uint64(d.Remaining()) {
			return d.fail("array count")
		}
		for i := uint64(0); i < count; i++ {
			if err := d.scan(s.Elem); err != nil {
				return err
			}
		}
		return nil
	case KindMap:
		d.depth++
		err := d.scanMap(s)
		d.depth--
		return err
	case KindRecord:
		for _, f := range s.Fields {
			if err := d.scan(f.Type); err != nil {
				return fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("serde: scan: unknown kind %v", s.Kind)
}

// scanMap walks a map's entries; the caller holds depth raised.
func (d *Decoder) scanMap(s *Schema) error {
	count, n, err := d.uvarint("map count")
	if err != nil {
		return err
	}
	d.charge(s.Kind, n)
	if count > uint64(d.Remaining()) {
		return d.fail("map count")
	}
	for i := uint64(0); i < count; i++ {
		_, kn, err := d.lengthPrefixed("map key")
		if err != nil {
			return err
		}
		d.charge(KindMap, kn)
		if err := d.scan(s.Elem); err != nil {
			return err
		}
	}
	return nil
}

// Skip advances past one value of schema s without decoding it, charging
// only SkippedBytes (the cheap per-record skip of Section 5.2: lengths must
// still be read, but no objects are created).
func (d *Decoder) Skip(s *Schema) error {
	start := d.pos
	err := d.scan(s)
	d.n = charges{skipped: int64(d.pos - start)}
	return d.settle(err)
}

// ReadUvarint reads a raw unsigned varint at the cursor. Layered formats
// (dictionary-compressed maps) use it for counts and ids; it charges no
// decode counters.
func (d *Decoder) ReadUvarint() (uint64, error) {
	v, _, err := d.uvarint("uvarint")
	return v, err
}

func (d *Decoder) uvarint(what string) (uint64, int, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, 0, d.fail(what)
	}
	d.pos += n
	return v, n, nil
}

// lengthPrefixed reads a uvarint length followed by that many bytes,
// returning the byte view and the total encoded size.
func (d *Decoder) lengthPrefixed(what string) ([]byte, int, error) {
	l, n, err := d.uvarint(what)
	if err != nil {
		return nil, 0, err
	}
	if l > uint64(d.Remaining()) {
		d.pos -= n
		return nil, 0, d.fail(what)
	}
	b := d.buf[d.pos : d.pos+int(l)]
	d.pos += int(l)
	return b, n + int(l), nil
}
