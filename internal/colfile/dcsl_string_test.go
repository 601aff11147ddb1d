package colfile

import (
	"fmt"
	"math/rand"
	"testing"

	"colmr/internal/compress"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Deterministic low-cardinality string data with nulls — the shape DCSL
// string columns are for.
func genSite(rng *rand.Rand) any {
	if rng.Intn(7) == 0 {
		return nil
	}
	return fmt.Sprintf("site-%02d", rng.Intn(12))
}

func writeStringDCSL(t *testing.T, schema *serde.Schema, n int, seed int64) (*memFile, []any) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return writeColumn(t, schema, Options{Layout: DCSL, Levels: []int{100, 10}}, n, func(i int) any {
		v := genSite(rng)
		if v != nil && schema.Kind == serde.KindBytes {
			return []byte(v.(string))
		}
		return v
	})
}

func TestDCSLStringRoundTrip(t *testing.T) {
	for _, schema := range []*serde.Schema{serde.String(), serde.Bytes()} {
		const n = 437
		f, vals := writeStringDCSL(t, schema, n, 11)
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", schema.Kind, err)
		}
		for i := 0; i < n; i++ {
			v, err := r.Value()
			if err != nil {
				t.Fatalf("%s: Value(%d): %v", schema.Kind, i, err)
			}
			if !serde.ValuesEqual(schema, v, vals[i]) {
				t.Fatalf("%s: record %d mismatch: %v vs %v", schema.Kind, i, v, vals[i])
			}
		}
	}
}

func TestDCSLStringSkipTo(t *testing.T) {
	schema := serde.String()
	const n = 1234
	f, vals := writeStringDCSL(t, schema, n, 12)
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pos := int64(0)
	for pos < n-1 {
		target := pos + int64(rng.Intn(200)) + 1
		if target >= n {
			target = n - 1
		}
		if err := r.SkipTo(target); err != nil {
			t.Fatalf("SkipTo(%d) from %d: %v", target, pos, err)
		}
		v, err := r.Value()
		if err != nil {
			t.Fatalf("Value at %d: %v", target, err)
		}
		if !serde.ValuesEqual(schema, v, vals[target]) {
			t.Fatalf("record %d mismatch after skip", target)
		}
		pos = target + 1
	}
}

// Vector decode of a DCSL string column must box back to the same values
// the scalar reader produces, nulls included.
func TestDCSLStringDecodeVector(t *testing.T) {
	schema := serde.String()
	const n = 437
	f, vals := writeStringDCSL(t, schema, n, 14)
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	vd, ok := r.(VectorDecoder)
	if !ok {
		t.Fatal("DCSL reader does not implement VectorDecoder")
	}
	v := scan.NewVector(VecKindOf(schema), n)
	var cpu sim.CPUStats
	if err := vd.DecodeVector(0, n, v, &cpu); err != nil {
		t.Fatal(err)
	}
	var bx serde.Boxer
	for i := 0; i < n; i++ {
		if got := v.Value(&bx, i); !serde.ValuesEqual(schema, got, vals[i]) {
			t.Fatalf("record %d: vector %v vs scalar %v", i, got, vals[i])
		}
	}
	if cpu.VecValues == 0 {
		t.Error("vector decode charged no VecValues")
	}
}

// DecodeIDVector must tile the range with window segments whose
// dictionaries map each id back to the stored value, charge only id-width
// bytes, and answer false for layouts/kinds that aren't dictionary-encoded
// scalars.
func TestDictIdVectorDecode(t *testing.T) {
	schema := serde.String()
	const n = 437
	f, vals := writeStringDCSL(t, schema, n, 15)
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := r.(IDVectorDecoder)
	if !ok {
		t.Fatal("DCSL reader does not implement IDVectorDecoder")
	}
	iv := &scan.IDVector{}
	var cpu sim.CPUStats
	answered, err := id.DecodeIDVector(0, n, iv, &cpu)
	if err != nil {
		t.Fatal(err)
	}
	if !answered {
		t.Fatal("DCSL string column did not answer id decode")
	}
	if iv.Len() != n {
		t.Fatalf("id vector length %d, want %d", iv.Len(), n)
	}
	// Segments tile [0, n) in order.
	pos := 0
	for _, seg := range iv.Segs {
		if seg.Start != pos || seg.End <= seg.Start || seg.Dict == nil {
			t.Fatalf("bad segment %+v at pos %d", seg, pos)
		}
		pos = seg.End
	}
	if pos != n {
		t.Fatalf("segments cover [0,%d), want [0,%d)", pos, n)
	}
	// Every id resolves back to the original value through its window
	// dictionary; nulls carry the null bit.
	for _, seg := range iv.Segs {
		for i := seg.Start; i < seg.End; i++ {
			if vals[i] == nil {
				if !iv.IsNull(i) {
					t.Fatalf("record %d: null lost", i)
				}
				continue
			}
			if iv.IsNull(i) {
				t.Fatalf("record %d: spurious null", i)
			}
			needle := vals[i].(string)
			got, present := seg.Dict.ResolveID(needle)
			if !present {
				t.Fatalf("record %d: %q absent from window dictionary", i, needle)
			}
			if got != iv.IDs[i] {
				t.Fatalf("record %d: id %d, dict says %d", i, iv.IDs[i], got)
			}
		}
	}
	// Absent needles must be reported absent.
	for _, seg := range iv.Segs {
		if _, present := seg.Dict.ResolveID("no-such-site"); present {
			t.Fatal("absent needle resolved")
		}
	}
	if cpu.VecBytes > int64(n)*2 {
		t.Errorf("id decode charged %d vec bytes for %d records — ids should be narrow", cpu.VecBytes, n)
	}
	if cpu.ValuesMaterialized != 0 || cpu.StringBytes != 0 {
		t.Errorf("id decode materialized values (%d boxed, %d string bytes) — should build none",
			cpu.ValuesMaterialized, cpu.StringBytes)
	}

	// A DCSL map column must decline.
	mf, _ := writeColumn(t, mapSchema(), Options{Layout: DCSL, Levels: []int{100, 10}}, 50, genMap)
	mr, err := NewReader(mf.reader(), mapSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	answered, err = mr.(IDVectorDecoder).DecodeIDVector(0, 50, &scan.IDVector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if answered {
		t.Error("map DCSL column answered id decode")
	}
}

// Mid-file id decode (batch boundaries) must agree with a full decode.
func TestDictIdVectorDecodeRanges(t *testing.T) {
	schema := serde.String()
	const n = 512
	f, vals := writeStringDCSL(t, schema, n, 16)
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := r.(IDVectorDecoder)
	// Ranges chosen to straddle window boundaries (levels 100/10).
	for _, rg := range [][2]int64{{0, 37}, {37, 100}, {100, 295}, {295, 512}} {
		iv := &scan.IDVector{}
		answered, err := id.DecodeIDVector(rg[0], rg[1], iv, nil)
		if err != nil || !answered {
			t.Fatalf("range %v: answered=%v err=%v", rg, answered, err)
		}
		if iv.Len() != int(rg[1]-rg[0]) {
			t.Fatalf("range %v: len %d", rg, iv.Len())
		}
		for _, seg := range iv.Segs {
			for i := seg.Start; i < seg.End; i++ {
				rec := int(rg[0]) + i
				if vals[rec] == nil {
					if !iv.IsNull(i) {
						t.Fatalf("rec %d: null lost", rec)
					}
					continue
				}
				got, present := seg.Dict.ResolveID(vals[rec].(string))
				if !present || got != iv.IDs[i] {
					t.Fatalf("rec %d: id mismatch", rec)
				}
			}
		}
	}
}

// A DCSL string column boxes each entry of a window's dictionary once, on its
// first lookup: past that, Value on a row whose string the window has already
// served allocates nothing — no box, no chunk, no copy.
func TestDCSLStringValueBoxesDictionaryEntryOnce(t *testing.T) {
	schema := serde.String()
	const n, window = 1000, 100
	f, vals := writeStringDCSL(t, schema, n, 21)
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	read := func(rows int) {
		for i := 0; i < rows; i++ {
			at := r.Record()
			v, err := r.Value()
			if err != nil {
				t.Fatal(err)
			}
			if v != vals[at] {
				t.Fatalf("record %d read as %v, wrote %v", at, v, vals[at])
			}
		}
	}
	read(3*window + 60) // every one of the window's twelve strings has come by
	if allocs := testing.AllocsPerRun(1, func() { read(15) }); allocs != 0 {
		t.Errorf("15 values of a warm window allocate %.0f objects, want 0", allocs)
	}
}

// A DCSL id vector's segments keep their window dictionaries, and a view
// owns its bytes: after the reader has refilled its stream window many
// times, read to the end and released it — poisoned — every kept segment
// still resolves each row's value to its id and looks the id up as that
// value.
func TestDCSLDictViewOutlivesWindow(t *testing.T) {
	poisonReleased = true
	defer func() { poisonReleased = false }()
	schema := serde.String()
	const n, batch = 700, 64 // seven dictionary windows of 100 rows
	f, vals := writeColumn(t, schema, Options{Layout: DCSL, Levels: []int{100, 10}}, n, func(i int) any {
		if i%9 == 4 {
			return nil
		}
		return fmt.Sprintf("http://site%02d.example/%d", i%23, i/100)
	})
	held := WindowsInUse()
	r, err := NewReaderOpts(f.reader(), schema, ReaderOptions{Chunk: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept []*scan.IDVector
	for at := int64(0); at < n; at += batch {
		iv := &scan.IDVector{}
		if answered, err := r.(IDVectorDecoder).DecodeIDVector(at, min(at+batch, n), iv, nil); err != nil || !answered {
			t.Fatalf("ids [%d, %d): answered %v, %v", at, at+batch, answered, err)
		}
		kept = append(kept, iv)
	}
	if r.Record() != n {
		t.Fatalf("reader at %d after the last batch, want %d", r.Record(), n)
	}
	r.Release()
	if got := WindowsInUse(); got != held {
		t.Fatalf("%d stream windows out after the release", got-held)
	}
	segs := 0
	for b, iv := range kept {
		for _, seg := range iv.Segs {
			segs++
			dict := seg.Dict.(*compress.DictView)
			if _, ok := dict.ResolveID("http://site99.example/0"); ok {
				t.Errorf("batch %d: an absent value resolves", b)
			}
			for i := seg.Start; i < seg.End; i++ {
				want := vals[b*batch+i]
				if want == nil {
					if !iv.IsNull(i) {
						t.Fatalf("batch %d row %d: null lost", b, i)
					}
					continue
				}
				if id, ok := dict.ResolveID(want.(string)); !ok || id != iv.IDs[i] {
					t.Fatalf("batch %d row %d: %q resolves to %d, %v; the row holds id %d", b, i, want, id, ok, iv.IDs[i])
				}
				if e, err := dict.Lookup(iv.IDs[i]); err != nil || string(e) != want {
					t.Fatalf("batch %d row %d: id %d looks up %q, %v; wrote %q", b, i, iv.IDs[i], e, err, want)
				}
			}
		}
	}
	if segs < 3+len(kept) {
		t.Fatalf("%d segments over %d batches: the batches cross too few windows", segs, len(kept))
	}
}
