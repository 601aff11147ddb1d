package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"colmr/internal/compress"
	"colmr/internal/race"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// The scalar cursor's hot paths — Value, SkipTo — and the batch decode that
// feeds eager record assembly: what they charge, what they allocate, and
// that nothing they hand out aliases a buffer they reuse.

type cursorCase struct {
	name   string
	schema *serde.Schema
	opts   Options
	gen    func(rng *rand.Rand, i int) any
}

// cursorCases are one column per value shape on every layout that can hold
// it, written with values on both sides of the boxing arena's cut-off.
func cursorCases() []cursorCase {
	// Few distinct values, as dictionary layouts expect of a column.
	payload := func(rng *rand.Rand, i int) string {
		if i%9 == 0 {
			return strings.Repeat(string(rune('a'+i%26)), 300+40*(i%7))
		}
		return fmt.Sprintf("site%d.example/page", rng.Intn(12))
	}
	shapes := []cursorCase{
		{name: "int", schema: serde.Int(), gen: func(rng *rand.Rand, i int) any { return int32(1000 + rng.Intn(9000)) }},
		{name: "double", schema: serde.Double(), gen: func(rng *rand.Rand, i int) any { return float64(rng.Intn(100)) / 8 }},
		{name: "string", schema: serde.String(), gen: func(rng *rand.Rand, i int) any { return payload(rng, i) }},
		{name: "bytes", schema: serde.Bytes(), gen: func(rng *rand.Rand, i int) any { return []byte(payload(rng, i)) }},
		{name: "map", schema: serde.MapOf(serde.String()), gen: func(rng *rand.Rand, i int) any {
			return map[string]any{"server": "httpd", "len": fmt.Sprint(rng.Intn(50))}
		}},
		{name: "array", schema: serde.ArrayOf(serde.Long()), gen: func(rng *rand.Rand, i int) any {
			return []any{int64(i), int64(rng.Intn(7))}
		}},
	}
	var out []cursorCase
	for _, s := range shapes {
		for _, opts := range allLayouts() {
			if opts.Layout == DCSL && s.schema.Kind != serde.KindMap &&
				s.schema.Kind != serde.KindString && s.schema.Kind != serde.KindBytes {
				continue
			}
			c := s
			c.opts = opts
			c.name = s.name + "/" + opts.Layout.String() + "/" + opts.Codec
			out = append(out, c)
		}
	}
	return out
}

// A vector marked Boxed must be charged exactly what reading the same
// records through Value charges, whatever window the stream refills by — a
// seven-byte chunk makes nearly every plain-layout decode retry on a grown
// window, and a retried decode must pollute no counter.
func TestBoxedDecodeChargesScalarCounters(t *testing.T) {
	const n = 437
	for _, tc := range cursorCases() {
		rng := rand.New(rand.NewSource(9))
		f, vals := writeColumn(t, tc.schema, tc.opts, n, func(i int) any { return tc.gen(rng, i) })
		// Read [lo, hi) after skipping to lo, the shape one assembled batch
		// run has.
		const lo, hi = 23, 391
		var want sim.CPUStats
		r, err := NewReader(f.reader(), tc.schema, &want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := r.SkipTo(lo); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := lo; i < hi; i++ {
			if _, err := r.Value(); err != nil {
				t.Fatalf("%s: value %d: %v", tc.name, i, err)
			}
		}
		for _, chunk := range []int{0, 7} {
			var got, sink sim.CPUStats
			r, err := NewReaderOpts(f.reader(), tc.schema, ReaderOptions{Chunk: chunk}, &got)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			v := scan.NewVector(VecKindOf(tc.schema), hi-lo)
			v.Boxed = true
			if err := r.(VectorDecoder).DecodeVector(lo, hi, v, &sink); err != nil {
				t.Fatalf("%s chunk %d: %v", tc.name, chunk, err)
			}
			if got != (sim.CPUStats{}) {
				t.Errorf("%s chunk %d: batch decode charged the reader's own sink: %+v", tc.name, chunk, got)
			}
			if sink != want {
				t.Errorf("%s chunk %d: boxed decode charged\n%+v\nscalar cursor\n%+v", tc.name, chunk, sink, want)
			}
			boxed := make([]any, hi-lo)
			if k := v.Box(new(serde.Boxer), nil, boxed, 1); k != hi-lo {
				t.Fatalf("%s: boxed %d rows of %d", tc.name, k, hi-lo)
			}
			for i, x := range boxed {
				if !serde.ValuesEqual(tc.schema, x, vals[lo+i]) {
					t.Fatalf("%s chunk %d: record %d boxed as %v, wrote %v", tc.name, chunk, lo+i, x, vals[lo+i])
				}
			}
		}
	}
}

// A block reader decompresses every frame into one reused buffer, so a value
// decoded from frame k must own its bytes: loading frame k+1 may not change
// it. Strings, byte slices and map keys are copies today; this pins it.
func TestBlockFrameReuseKeepsValues(t *testing.T) {
	const n = 600
	for _, tc := range cursorCases() {
		if tc.opts.Layout != Block {
			continue
		}
		rng := rand.New(rand.NewSource(3))
		f, vals := writeColumn(t, tc.schema, tc.opts, n, func(i int) any { return tc.gen(rng, i) })
		r, err := NewReader(f.reader(), tc.schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Half by the cursor, half by batch decode, all kept until the end.
		got := make([]any, 0, n)
		for i := 0; i < n/2; i++ {
			v, err := r.Value()
			if err != nil {
				t.Fatalf("%s: value %d: %v", tc.name, i, err)
			}
			got = append(got, v)
		}
		v := scan.NewVector(VecKindOf(tc.schema), n-n/2)
		if err := r.(VectorDecoder).DecodeVector(n/2, n, v, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var bx serde.Boxer
		for i := 0; i < v.Len(); i++ {
			got = append(got, v.Value(&bx, i))
		}
		for i, x := range got {
			if !serde.ValuesEqual(tc.schema, x, vals[i]) {
				t.Fatalf("%s: record %d read as %v after later frames loaded, wrote %v", tc.name, i, x, vals[i])
			}
		}
	}
}

// A reader's one decoder boxes every value it hands out from chunks that
// outlive each Init: a value read early stays what it was through every later
// value, including the ones a seven-byte window makes the plain layout decode
// twice — the failed first attempt has boxed map and array elements of its own.
func TestCursorValuesSurviveLaterDecodes(t *testing.T) {
	const n = 437
	for _, tc := range cursorCases() {
		for _, chunk := range []int{0, 7} {
			rng := rand.New(rand.NewSource(17))
			f, vals := writeColumn(t, tc.schema, tc.opts, n, func(i int) any { return tc.gen(rng, i) })
			r, err := NewReaderOpts(f.reader(), tc.schema, ReaderOptions{Chunk: chunk}, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got := make([]any, n)
			for i := range got {
				if got[i], err = r.Value(); err != nil {
					t.Fatalf("%s chunk %d: value %d: %v", tc.name, chunk, i, err)
				}
			}
			r.Release()
			runtime.GC()
			for i, x := range got {
				if !serde.ValuesEqual(tc.schema, x, vals[i]) {
					t.Fatalf("%s chunk %d: record %d reads %v after the rest were decoded, wrote %v", tc.name, chunk, i, x, vals[i])
				}
			}
		}
	}
}

// skipAllocs reports allocations per record skipped one at a time (refills,
// frame loads and dictionary loads amortize to less than one per record and
// AllocsPerRun rounds down).
func skipAllocs(t testing.TB, f *memFile, schema *serde.Schema, n int) float64 {
	t.Helper()
	r, err := NewReader(f.reader(), schema, &sim.CPUStats{})
	if err != nil {
		t.Fatal(err)
	}
	pos := int64(0)
	return testing.AllocsPerRun(n-2, func() {
		pos++
		if err := r.SkipTo(pos); err != nil {
			t.Fatal(err)
		}
	})
}

// Skipping allocates nothing per record on any layout: LazyRecord.Get walks
// the records between the ones a job touches, so a per-skip allocation is a
// per-row tax on every selective scan. The test skips through 1 000-record
// columns; the benchmark of the same name through 4 000-record ones.
func TestSkipToAllocGuard(t *testing.T) { checkSkipToAllocGuard(t, 1000) }

func BenchmarkSkipToAllocGuard(b *testing.B) {
	for range b.N {
		checkSkipToAllocGuard(b, 4000)
	}
}

func checkSkipToAllocGuard(t testing.TB, n int) {
	for _, tc := range cursorCases() {
		rng := rand.New(rand.NewSource(5))
		f, _ := writeColumn(t, tc.schema, tc.opts, n, func(i int) any { return tc.gen(rng, i) })
		if allocs := skipAllocs(t, f, tc.schema, n); allocs > 0 {
			t.Errorf("%s: SkipTo allocates %.0f objects per skipped record, want 0", tc.name, allocs)
		}
	}
}

// Reading an int costs its slot in the decoder's chunk and nothing else — no
// box of its own, no decoder, no scratch counters — on every layout (a chunk
// is one allocation in up to 256 values, and AllocsPerRun rounds down).
func TestValueAllocGuard(t *testing.T) {
	const n = 4000
	for _, tc := range cursorCases() {
		if tc.schema.Kind != serde.KindInt {
			continue
		}
		rng := rand.New(rand.NewSource(5))
		f, _ := writeColumn(t, tc.schema, tc.opts, n, func(i int) any { return tc.gen(rng, i) })
		r, err := NewReader(f.reader(), tc.schema, &sim.CPUStats{})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(n-2, func() {
			if _, err := r.Value(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: Value allocates %.0f objects per int, want none", tc.name, allocs)
		}
	}
}

// benchCursor runs step over every record of a fresh reader per iteration,
// reporting ns/row.
func benchCursor(b *testing.B, step func(r Reader, i int64) error) {
	const n = 1 << 14
	for _, tc := range cursorCases() {
		if tc.schema.Kind != serde.KindString || tc.opts.Codec == "zlib" {
			continue // one value shape; zlib would time compress/flate
		}
		b.Run(tc.opts.Layout.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f, _ := writeColumn(b, tc.schema, tc.opts, n, func(i int) any { return tc.gen(rng, i) })
			data := f.Bytes()
			var st sim.CPUStats
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				r, err := NewReader(bytes.NewReader(data), tc.schema, &st)
				if err != nil {
					b.Fatal(err)
				}
				for i := int64(0); i < n; i++ {
					if err := step(r, i); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

// BenchmarkSkipTo walks a string column one record at a time, the access
// pattern of a lazy record's untouched rows.
func BenchmarkSkipTo(b *testing.B) {
	benchCursor(b, func(r Reader, i int64) error { return r.SkipTo(i + 1) })
}

// BenchmarkValue reads a string column through the scalar cursor.
func BenchmarkValue(b *testing.B) {
	benchCursor(b, func(r Reader, _ int64) error {
		_, err := r.Value()
		return err
	})
}

// BenchmarkDecodeVector batch-decodes an int and a string column, 4096 rows
// a call into one reused vector, on each layout: the decode under every
// vectorized predicate and every batch fold.
func BenchmarkDecodeVector(b *testing.B) {
	const n, batch = 1 << 14, 4096
	for _, tc := range cursorCases() {
		kind := tc.schema.Kind
		if (kind != serde.KindInt && kind != serde.KindString) || tc.opts.Codec == "zlib" {
			continue // zlib would time compress/flate
		}
		layout := tc.opts.Layout.String()
		if tc.opts.Codec != "" {
			layout += "_" + tc.opts.Codec
		}
		b.Run(layout+"/"+kind.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f, _ := writeColumn(b, tc.schema, tc.opts, n, func(i int) any { return tc.gen(rng, i) })
			data := f.Bytes()
			var st sim.CPUStats
			v := scan.NewVector(VecKindOf(tc.schema), batch)
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				r, err := NewReader(bytes.NewReader(data), tc.schema, nil)
				if err != nil {
					b.Fatal(err)
				}
				for at := int64(0); at < n; at += batch {
					v.Reset(v.Kind, batch)
					if err := r.(VectorDecoder).DecodeVector(at, at+batch, v, &st); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

// eightEntryDictMap encodes a map<string> of eight entries as a DCSL window
// stores it — the entry count, then each key's dictionary id and its encoded
// value — and returns it with its window dictionary, as a reader loads it,
// and the map it holds.
func eightEntryDictMap(tb testing.TB) (*serde.Schema, *dictWindow, []byte, map[string]any) {
	tb.Helper()
	schema := serde.MapOf(serde.String())
	dict := compress.NewDictionary()
	want := map[string]any{}
	keys := []string{"server", "content-type", "date", "etag", "last-modified", "expires", "cache-control", "via"}
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for i, k := range keys {
		v := fmt.Sprintf("%s-value-%d", k, 37*i)
		want[k] = v
		buf = binary.AppendUvarint(buf, uint64(dict.Add(k)))
		var err error
		if buf, err = serde.AppendValue(buf, schema.Elem, v); err != nil {
			tb.Fatal(err)
		}
	}
	view, _, err := compress.ParseDictionary(dict.Append(nil))
	if err != nil {
		tb.Fatal(err)
	}
	var w dictWindow
	w.reset(view, schema.Kind)
	return schema, &w, buf, want
}

var mapSink map[string]any

// A DCSL map through one reused decoder allocates the Go map and, amortized,
// less than one chunk: its keys are the dictionary's strings, its values'
// boxes and bytes come out of the decoder's chunks.
func TestParseDictMapAllocCeiling(t *testing.T) {
	schema, dict, buf, want := eightEntryDictMap(t)
	var d serde.Decoder
	m, n, err := parseDictMap(&d, buf, schema, dict)
	if err != nil || n != len(buf) || !serde.ValuesEqual(schema, m, want) {
		t.Fatalf("parseDictMap = %v, %d, %v; want %v, %d", m, n, err, want, len(buf))
	}
	keys, vals := make([]string, 0, len(want)), make([]any, 0, len(want))
	for k, v := range want {
		keys, vals = append(keys, k), append(vals, v)
	}
	goMap := testing.AllocsPerRun(200, func() {
		m := make(map[string]any, len(keys))
		for i, k := range keys {
			m[k] = vals[i]
		}
		mapSink = m
	})
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := parseDictMap(&d, buf, schema, dict); err != nil {
			t.Fatal(err)
		}
	})
	race.AllocCeiling(t, fmt.Sprintf("parseDictMap of an 8-entry map<string> (the map alone: %.0f)", goMap), allocs, goMap+1)
}

// BenchmarkParseDictMap materializes the eight-entry map through one reused
// decoder, as a DCSL column reader does.
func BenchmarkParseDictMap(b *testing.B) {
	schema, dict, buf, _ := eightEntryDictMap(b)
	var d serde.Decoder
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for range b.N {
		if _, _, err := parseDictMap(&d, buf, schema, dict); err != nil {
			b.Fatal(err)
		}
	}
}
