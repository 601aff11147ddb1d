package colfile

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"colmr/internal/serde"
	"colmr/internal/sim"
)

// memFile collects writer output and serves it back as a ReaderAtSize.
type memFile struct{ bytes.Buffer }

func (m *memFile) reader() ReaderAtSize { return bytes.NewReader(m.Bytes()) }

// allLayouts returns one Options per layout, exercising both codecs for
// Block. Map-only layouts are filtered by the caller.
func allLayouts() []Options {
	return []Options{
		{Layout: Plain},
		{Layout: SkipList, Levels: []int{100, 10}},
		{Layout: Block, Codec: "lzo", BlockBytes: 1 << 10},
		{Layout: Block, Codec: "zlib", BlockBytes: 1 << 10},
		{Layout: DCSL, Levels: []int{100, 10}},
	}
}

func mapSchema() *serde.Schema { return serde.MapOf(serde.Int()) }

// writeColumn writes n deterministic map values and returns the file plus
// the values.
func writeColumn(t testing.TB, schema *serde.Schema, opts Options, n int, gen func(i int) any) (*memFile, []any) {
	t.Helper()
	f := &memFile{}
	w, err := NewWriter(f, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var vals []any
	for i := 0; i < n; i++ {
		v := gen(i)
		vals = append(vals, v)
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(n) {
		t.Fatalf("Count = %d, want %d", w.Count(), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return f, vals
}

func genMap(i int) any {
	return map[string]any{
		"content-type": int32(i),
		"server":       int32(i * 2),
		"etag":         int32(i * 3),
	}
}

func TestRoundTripAllLayouts(t *testing.T) {
	schema := mapSchema()
	const n = 437 // deliberately not a multiple of any level
	for _, opts := range allLayouts() {
		name := opts.Layout.String() + "/" + opts.Codec
		f, vals := writeColumn(t, schema, opts, n, genMap)
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Total() != n {
			t.Errorf("%s: Total = %d, want %d", name, r.Total(), n)
		}
		for i := 0; i < n; i++ {
			v, err := r.Value()
			if err != nil {
				t.Fatalf("%s: Value(%d): %v", name, i, err)
			}
			if !serde.ValuesEqual(schema, v, vals[i]) {
				t.Fatalf("%s: record %d mismatch: %v vs %v", name, i, v, vals[i])
			}
		}
		if _, err := r.Value(); err == nil {
			t.Errorf("%s: read past end succeeded", name)
		}
	}
}

// Skipping to an arbitrary target then reading must observe the same value
// as reading sequentially — for every layout.
func TestSkipToEquivalence(t *testing.T) {
	schema := mapSchema()
	const n = 1234
	for _, opts := range allLayouts() {
		opts := opts
		name := opts.Layout.String() + "/" + opts.Codec
		f, vals := writeColumn(t, schema, opts, n, genMap)
		rng := rand.New(rand.NewSource(31))
		// Monotone random targets, exercising pointer use and walks.
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		pos := int64(0)
		for pos < n-1 {
			jump := int64(rng.Intn(200)) + 1
			target := pos + jump
			if target >= n {
				target = n - 1
			}
			if err := r.SkipTo(target); err != nil {
				t.Fatalf("%s: SkipTo(%d) from %d: %v", name, target, pos, err)
			}
			if r.Record() != target {
				t.Fatalf("%s: Record = %d, want %d", name, r.Record(), target)
			}
			v, err := r.Value()
			if err != nil {
				t.Fatalf("%s: Value at %d: %v", name, target, err)
			}
			if !serde.ValuesEqual(schema, v, vals[target]) {
				t.Fatalf("%s: record %d mismatch after skip", name, target)
			}
			pos = target + 1
		}
	}
}

func TestSkipToEnd(t *testing.T) {
	schema := mapSchema()
	for _, opts := range allLayouts() {
		f, _ := writeColumn(t, schema, opts, 57, genMap)
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SkipTo(57); err != nil {
			t.Errorf("%s: SkipTo(end): %v", opts.Layout, err)
		}
		if err := r.SkipTo(58); err == nil {
			t.Errorf("%s: SkipTo past end succeeded", opts.Layout)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	schema := mapSchema()
	for _, opts := range allLayouts() {
		f, _ := writeColumn(t, schema, opts, 0, genMap)
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", opts.Layout, err)
		}
		if r.Total() != 0 {
			t.Errorf("%s: Total = %d", opts.Layout, r.Total())
		}
		if _, err := r.Value(); err == nil {
			t.Errorf("%s: Value on empty file succeeded", opts.Layout)
		}
	}
}

// Exact-window sizes hit the flush-at-boundary path; window+1 leaves a
// single trailing value.
func TestWindowBoundaries(t *testing.T) {
	schema := mapSchema()
	for _, n := range []int{10, 100, 101, 199, 200, 201} {
		for _, layout := range []Layout{SkipList, DCSL} {
			opts := Options{Layout: layout, Levels: []int{100, 10}}
			f, vals := writeColumn(t, schema, opts, n, genMap)
			r, err := NewReader(f.reader(), schema, nil)
			if err != nil {
				t.Fatalf("%v n=%d: %v", layout, n, err)
			}
			for i := 0; i < n; i++ {
				v, err := r.Value()
				if err != nil {
					t.Fatalf("%v n=%d rec=%d: %v", layout, n, i, err)
				}
				if !serde.ValuesEqual(schema, v, vals[i]) {
					t.Fatalf("%v n=%d rec=%d mismatch", layout, n, i)
				}
			}
		}
	}
}

// Skip-list pointers must actually skip I/O: jumping most of a file reads
// far fewer logical bytes than scanning it.
func TestSkipListEliminatesWork(t *testing.T) {
	schema := serde.Bytes()
	const n = 5000
	gen := func(i int) any { return bytes.Repeat([]byte{byte(i)}, 500) }

	scanCost := func(opts Options, target int64) sim.CPUStats {
		f, _ := writeColumn(t, schema, opts, n, gen)
		var st sim.CPUStats
		r, err := NewReader(f.reader(), schema, &st)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SkipTo(target); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Value(); err != nil {
			t.Fatal(err)
		}
		return st
	}

	plain := scanCost(Options{Layout: Plain}, n-1)
	sl := scanCost(Options{Layout: SkipList}, n-1)
	plainWork := plain.RawBytes + plain.SkippedBytes
	slWork := sl.RawBytes + sl.SkippedBytes
	if slWork*10 > plainWork {
		t.Errorf("skip list walk cost %d not ≪ plain %d", slWork, plainWork)
	}
}

// DCSL files must be smaller than plain skip lists when map keys repeat —
// the compression property Table 1 relies on (61 GB vs 75 GB).
func TestDCSLCompresses(t *testing.T) {
	schema := mapSchema()
	const n = 2000
	gen := func(i int) any {
		return map[string]any{
			"content-type-header-x": int32(i),
			"content-length-header": int32(i),
			"last-modified-header":  int32(i),
		}
	}
	fPlain, _ := writeColumn(t, schema, Options{Layout: SkipList}, n, gen)
	fDCSL, _ := writeColumn(t, schema, Options{Layout: DCSL}, n, gen)
	if fDCSL.Len() >= fPlain.Len() {
		t.Errorf("DCSL %d bytes >= SkipList %d bytes", fDCSL.Len(), fPlain.Len())
	}
}

func TestBlockLazyDecompression(t *testing.T) {
	schema := serde.Bytes()
	const n = 2000
	gen := func(i int) any { return bytes.Repeat([]byte{byte(i)}, 200) }
	opts := Options{Layout: Block, Codec: "zlib", BlockBytes: 8 << 10}

	// Full scan decompresses everything.
	f, _ := writeColumn(t, schema, opts, n, gen)
	var full sim.CPUStats
	r, err := NewReader(f.reader(), schema, &full)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := r.Value(); err != nil {
			t.Fatal(err)
		}
	}

	// Skipping to the last record decompresses at most two frames.
	var lazy sim.CPUStats
	r2, err := NewReader(f.reader(), schema, &lazy)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SkipTo(n - 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Value(); err != nil {
		t.Fatal(err)
	}
	if lazy.ZlibBytes*10 > full.ZlibBytes {
		t.Errorf("lazy decompression %d bytes not ≪ full %d", lazy.ZlibBytes, full.ZlibBytes)
	}
}

func TestDCSLRequiresMapSchema(t *testing.T) {
	f := &memFile{}
	if _, err := NewWriter(f, serde.Int(), Options{Layout: DCSL}, nil); err == nil {
		t.Error("DCSL writer over int column should fail")
	}
}

func TestWriterValidation(t *testing.T) {
	f := &memFile{}
	if _, err := NewWriter(f, mapSchema(), Options{Layout: SkipList, Levels: []int{10, 100}}, nil); err == nil {
		t.Error("ascending levels should fail")
	}
	if _, err := NewWriter(f, mapSchema(), Options{Layout: SkipList, Levels: []int{100, 30}}, nil); err == nil {
		t.Error("non-divisible levels should fail")
	}
	if _, err := NewWriter(f, mapSchema(), Options{Layout: Block, BlockBytes: -1}, nil); err == nil {
		t.Error("negative block size should fail")
	}
	if _, err := NewWriter(f, &serde.Schema{Kind: serde.KindArray}, Options{}, nil); err == nil {
		t.Error("invalid schema should fail")
	}
}

func TestCorruptFiles(t *testing.T) {
	schema := mapSchema()
	f, _ := writeColumn(t, schema, Options{Layout: Plain}, 10, genMap)
	good := f.Bytes()
	// A file rejected after its header was read (the corrupt magic and layout
	// below) has taken a stream window and has no reader to release it.
	held := WindowsInUse()
	defer func() {
		if got := WindowsInUse(); got != held {
			t.Errorf("%d stream windows still out of the pool after the rejected opens", got-held)
		}
	}()

	// Truncated footer.
	if _, err := NewReader(bytes.NewReader(good[:len(good)-4]), schema, nil); err == nil {
		t.Error("corrupt footer magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(good[:3]), schema, nil); err == nil {
		t.Error("tiny file accepted")
	}
	// Corrupt header magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad), schema, nil); err == nil {
		t.Error("corrupt header magic accepted")
	}
	// Corrupt layout byte.
	bad = append([]byte{}, good...)
	bad[4] = 99
	if _, err := NewReader(bytes.NewReader(bad), schema, nil); err == nil {
		t.Error("unknown layout accepted")
	}
}

func TestParseLayout(t *testing.T) {
	for _, l := range []Layout{Plain, SkipList, Block, DCSL} {
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLayout(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLayout("nope"); err == nil {
		t.Error("unknown layout name accepted")
	}
	if l, err := ParseLayout(""); err != nil || l != Plain {
		t.Errorf("empty layout = %v, %v; want Plain", l, err)
	}
}

// Property: for random values and random skip patterns, skip-then-read on a
// skip list matches a plain sequential read.
func TestSkipListPropertyEquivalence(t *testing.T) {
	schema := serde.MustParse(`V { string s, int i }`).Field("s")
	_ = schema
	valSchema := serde.String()
	const n = 600
	f, vals := writeColumn(t, valSchema, Options{Layout: SkipList, Levels: []int{100, 10}}, n,
		func(i int) any { return string(rune('a'+i%26)) + "-value" })

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, err := NewReader(f.reader(), valSchema, nil)
		if err != nil {
			return false
		}
		pos := int64(0)
		for pos < n {
			target := pos + int64(rng.Intn(150))
			if target >= n {
				return true
			}
			if err := r.SkipTo(target); err != nil {
				t.Logf("SkipTo(%d): %v", target, err)
				return false
			}
			v, err := r.Value()
			if err != nil {
				t.Logf("Value(%d): %v", target, err)
				return false
			}
			if v.(string) != vals[target].(string) {
				t.Logf("record %d: %q != %q", target, v, vals[target])
				return false
			}
			pos = target + 1
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRefillHookFires(t *testing.T) {
	schema := serde.Bytes()
	f, _ := writeColumn(t, schema, Options{Layout: Plain}, 100,
		func(i int) any { return make([]byte, 1000) })
	refills := 0
	r, err := NewReaderOpts(f.reader(), schema, ReaderOptions{Chunk: 4096, OnRefill: func(int, int) { refills++ }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := r.Value(); err != nil {
			t.Fatal(err)
		}
	}
	if refills < 10 {
		t.Errorf("refill hook fired %d times; want >= 10 for 100KB at 4KB chunks", refills)
	}
}
