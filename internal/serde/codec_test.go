package serde

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"colmr/internal/sim"
)

func TestEncodeDecodePrimitives(t *testing.T) {
	cases := []struct {
		schema *Schema
		value  any
	}{
		{Bool(), true},
		{Bool(), false},
		{Int(), int32(0)},
		{Int(), int32(-1)},
		{Int(), int32(1 << 30)},
		{Int(), int32(-(1 << 31))},
		{Long(), int64(1) << 62},
		{Long(), int64(-1) << 62},
		{Time(), int64(1293840000000)},
		{Double(), 3.14159},
		{Double(), -0.0},
		{String(), ""},
		{String(), "http://a.com"},
		{Bytes(), []byte{}},
		{Bytes(), []byte{0, 255, 10}},
	}
	for _, c := range cases {
		buf, err := AppendValue(nil, c.schema, c.value)
		if err != nil {
			t.Errorf("encode %v %v: %v", c.schema.Kind, c.value, err)
			continue
		}
		d := NewDecoder(buf, nil)
		got, err := d.Value(c.schema)
		if err != nil {
			t.Errorf("decode %v: %v", c.schema.Kind, err)
			continue
		}
		if !ValuesEqual(c.schema, got, c.value) {
			t.Errorf("round-trip %v: got %v, want %v", c.schema.Kind, got, c.value)
		}
		if d.Remaining() != 0 {
			t.Errorf("%v: %d bytes left over", c.schema.Kind, d.Remaining())
		}
	}
}

func TestEncodeTypeMismatch(t *testing.T) {
	if _, err := AppendValue(nil, Int(), "not an int"); err == nil {
		t.Error("encoding string as int should fail")
	}
	if _, err := AppendValue(nil, String(), int32(1)); err == nil {
		t.Error("encoding int as string should fail")
	}
	if _, err := AppendValue(nil, MapOf(Int()), map[string]any{"a": "x"}); err == nil {
		t.Error("map with wrong value type should fail")
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	schema := MustParse(`
T {
  bool b,
  int i,
  long l,
  double d,
  string s,
  bytes raw,
  string[] arr,
  map<string> m,
  Inner { int x, string[] ys } nested
}`)
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := RandomRecord(rand.New(rand.NewSource(seed^rng.Int63())), schema)
		buf, err := EncodeRecord(r)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := NewDecoder(buf, nil).Record(schema)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return RecordsEqual(r, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Scan must consume exactly the bytes Value consumes and charge identical
// counters — that equivalence is what lets the harness price boxed vs view
// decoding from a single walk.
func TestScanMatchesValue(t *testing.T) {
	schema := MustParse(`
T { int i, double d, string s, bytes raw, map<string> m, string[] a }`)
	f := func(seed int64) bool {
		r := RandomRecord(rand.New(rand.NewSource(seed)), schema)
		buf, _ := EncodeRecord(r)

		var vStats, sStats sim.CPUStats
		dv := NewDecoder(buf, &vStats)
		if _, err := dv.Record(schema); err != nil {
			return false
		}
		ds := NewDecoder(buf, &sStats)
		if err := ds.Scan(schema); err != nil {
			return false
		}
		if dv.Pos() != ds.Pos() {
			t.Logf("pos mismatch: value %d, scan %d", dv.Pos(), ds.Pos())
			return false
		}
		// Scan does not materialize, so zero those counters before compare.
		vStats.ValuesMaterialized = 0
		vStats.RecordsMaterialized = 0
		return vStats == sStats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSkipChargesOnlySkippedBytes(t *testing.T) {
	schema := MustParse(`T { string s, map<string> m }`)
	r := RandomRecord(rand.New(rand.NewSource(5)), schema)
	buf, _ := EncodeRecord(r)
	var st sim.CPUStats
	d := NewDecoder(buf, &st)
	if err := d.Skip(schema); err != nil {
		t.Fatal(err)
	}
	if st.SkippedBytes != int64(len(buf)) {
		t.Errorf("SkippedBytes = %d, want %d", st.SkippedBytes, len(buf))
	}
	if st.StringBytes != 0 || st.MapBytes != 0 || st.ValuesMaterialized != 0 {
		t.Errorf("skip charged decode counters: %+v", st)
	}
}

// Top-level primitives charge their own counters; values nested in complex
// types charge MapBytes. This attribution drives the Figure 8 model.
func TestCounterAttribution(t *testing.T) {
	schema := MustParse(`T { int i, string s, bytes raw, map<string> m }`)
	r := NewRecord(schema)
	r.Set("i", int32(7))
	r.Set("s", "hello")
	r.Set("raw", []byte{1, 2, 3})
	r.Set("m", map[string]any{"k1": "v1", "k2": "v2"})
	buf, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	var st sim.CPUStats
	if _, err := NewDecoder(buf, &st).Record(schema); err != nil {
		t.Fatal(err)
	}
	if st.IntBytes == 0 || st.StringBytes == 0 || st.RawBytes == 0 || st.MapBytes == 0 {
		t.Errorf("missing counters: %+v", st)
	}
	total := st.IntBytes + st.StringBytes + st.RawBytes + st.MapBytes + st.DoubleBytes
	if total != int64(len(buf)) {
		t.Errorf("counters sum to %d, want %d (each byte charged exactly once)", total, len(buf))
	}
	if st.RecordsMaterialized != 1 {
		t.Errorf("RecordsMaterialized = %d, want 1", st.RecordsMaterialized)
	}
}

func TestDecodeTruncated(t *testing.T) {
	schema := MustParse(`T { string s, map<string> m, int i }`)
	r := RandomRecord(rand.New(rand.NewSource(3)), schema)
	buf, _ := EncodeRecord(r)
	for cut := 0; cut < len(buf); cut++ {
		d := NewDecoder(buf[:cut], nil)
		if _, err := d.Record(schema); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded, want error", cut, len(buf))
		}
	}
}

func TestDecodeCorruptLengths(t *testing.T) {
	// A string whose declared length exceeds the buffer must fail cleanly.
	buf, _ := AppendValue(nil, String(), "abcdef")
	buf[0] = 200 // inflate length prefix
	if _, err := NewDecoder(buf, nil).Value(String()); err == nil {
		t.Error("oversized length prefix should fail")
	}
	// An array claiming more elements than bytes remain must fail before
	// allocating.
	abuf, _ := AppendValue(nil, ArrayOf(Int()), []any{int32(1)})
	abuf[0] = 255
	if _, err := NewDecoder(abuf, nil).Value(ArrayOf(Int())); err == nil {
		t.Error("oversized array count should fail")
	}
}

func TestDecodeIntOverflow(t *testing.T) {
	buf, _ := AppendValue(nil, Long(), int64(1)<<40)
	if _, err := NewDecoder(buf, nil).Value(Int()); err == nil {
		t.Error("decoding 2^40 as int should overflow")
	}
}

func TestMapEncodingDeterministic(t *testing.T) {
	s := MapOf(Int())
	m := map[string]any{"z": int32(1), "a": int32(2), "m": int32(3)}
	b1, _ := AppendValue(nil, s, m)
	for i := 0; i < 10; i++ {
		b2, _ := AppendValue(nil, s, m)
		if string(b1) != string(b2) {
			t.Fatal("map encoding is not deterministic")
		}
	}
}

func TestRecordSetGet(t *testing.T) {
	schema := MustParse(`T { int i, string s }`)
	r := NewRecord(schema)
	if err := r.Set("i", int32(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("i", "wrong type"); err == nil {
		t.Error("Set with wrong type should fail")
	}
	if err := r.Set("missing", int32(1)); err == nil {
		t.Error("Set of missing field should fail")
	}
	if _, err := r.Get("missing"); err == nil {
		t.Error("Get of missing field should fail")
	}
	v, err := r.Get("i")
	if err != nil || v.(int32) != 1 {
		t.Errorf("Get(i) = %v, %v", v, err)
	}
	if err := EncodeUnset(t, r); err == nil {
		t.Error("encoding a record with unset fields should fail")
	}
}

// EncodeUnset is a helper: encoding a partially set record must fail.
func EncodeUnset(t *testing.T, r *GenericRecord) error {
	t.Helper()
	_, err := EncodeRecord(r)
	return err
}

func TestDecoderReset(t *testing.T) {
	b1, _ := AppendValue(nil, Int(), int32(1))
	b2, _ := AppendValue(nil, Int(), int32(2))
	d := NewDecoder(b1, nil)
	if _, err := d.Value(Int()); err != nil {
		t.Fatal(err)
	}
	d.Reset(b2)
	v, err := d.Value(Int())
	if err != nil || v.(int32) != 2 {
		t.Errorf("after Reset: %v, %v", v, err)
	}
}

// A failed top-level call charges nothing: the caller may retry it on a
// longer window, and only the attempt that succeeds reaches the sink.
func TestFailedDecodeChargesNothing(t *testing.T) {
	schema := MustParse(`T { int i, string s, map<string> m, string[] a }`)
	r := RandomRecord(rand.New(rand.NewSource(11)), schema)
	buf, _ := EncodeRecord(r)
	var want sim.CPUStats
	if _, err := NewDecoder(buf, &want).Record(schema); err != nil {
		t.Fatal(err)
	}
	var got sim.CPUStats
	var d Decoder
	for cut := 0; cut < len(buf); cut++ {
		d.Init(buf[:cut], &got)
		if _, err := d.Record(schema); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", cut, len(buf))
		}
		d.Init(buf[:cut], &got)
		if err := d.Scan(schema); err == nil {
			t.Fatalf("scanning %d/%d bytes succeeded", cut, len(buf))
		}
		d.Init(buf[:cut], &got)
		if err := d.Skip(schema); err == nil {
			t.Fatalf("skipping %d/%d bytes succeeded", cut, len(buf))
		}
	}
	if got != (sim.CPUStats{}) {
		t.Fatalf("failed decodes charged %+v", got)
	}
	d.Init(buf, &got)
	if _, err := d.Record(schema); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("re-Inited decoder charged %+v, a fresh one %+v", got, want)
	}
}

// Records of one slab are ordinary records over disjoint rows of one value
// slab, laid out as documented.
func TestNewRecordsSlab(t *testing.T) {
	schema := MustParse(`T { int i, string s, bytes raw }`)
	recs, vals := NewRecords(schema, 5)
	if len(recs) != 5 || len(vals) != 15 {
		t.Fatalf("NewRecords(5) = %d records over %d values", len(recs), len(vals))
	}
	for i := range recs {
		vals[i*3+1] = fmt.Sprint("row", i)
	}
	recs[2].SetAt(0, int32(7))
	for i := range recs {
		if recs[i].Schema() != schema {
			t.Fatalf("record %d has schema %v", i, recs[i].Schema())
		}
		if s, _ := recs[i].Get("s"); s != fmt.Sprint("row", i) {
			t.Errorf("record %d field s = %v", i, s)
		}
		if v := recs[i].GetAt(0); (i == 2) != (v != nil) {
			t.Errorf("record %d field i = %v after setting record 2's", i, v)
		}
	}
	if vals[2*3] != int32(7) {
		t.Errorf("SetAt did not land in the value slab: %v", vals[6])
	}
}

// BenchmarkDecodeRecord decodes one encoded record of the paper's
// synthetic shape (six strings, six ints, a ten-entry map) per iteration —
// the row-format baseline an assembled columnar record competes with.
func BenchmarkDecodeRecord(b *testing.B) {
	fields := make([]Field, 0, 13)
	for i := 0; i < 6; i++ {
		fields = append(fields, Field{Name: fmt.Sprint("str", i), Type: String()})
	}
	for i := 0; i < 6; i++ {
		fields = append(fields, Field{Name: fmt.Sprint("int", i), Type: Int()})
	}
	fields = append(fields, Field{Name: "map0", Type: MapOf(Int())})
	schema := RecordOf("Synthetic", fields...)
	rng := rand.New(rand.NewSource(1))
	rec := RandomRecord(rng, schema)
	m := map[string]any{}
	for len(m) < 10 {
		m[randString(rng, 4)] = int32(rng.Intn(10000))
	}
	rec.SetAt(12, m)
	buf, err := EncodeRecord(rec)
	if err != nil {
		b.Fatal(err)
	}
	var st sim.CPUStats
	var d Decoder
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Init(buf, &st)
		if _, err := d.Record(schema); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
