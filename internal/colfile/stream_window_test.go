package colfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"colmr/internal/race"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// The stream window is filled in place and recycled across files. What must
// not change with that: which bytes are asked of the file underneath and in
// what order, what is decoded and charged whatever the refill size, and that
// nothing decoded depends on a window after it went back to the pool.

// windowLayouts are the four layouts (LZO for Block: zlib's bytes belong to
// compress/flate) over one string column, and over a map column where only a
// map can go.
func windowLayouts() []Options {
	return []Options{
		{Layout: Plain},
		{Layout: SkipList, Levels: []int{100, 10}},
		{Layout: Block, Codec: "lzo", BlockBytes: 1 << 10},
		{Layout: DCSL, Levels: []int{100, 10}},
	}
}

func windowStrings(n int) func(i int) any {
	rng := rand.New(rand.NewSource(77))
	return func(i int) any {
		if i%40 == 7 {
			return strings.Repeat(string(rune('a'+i%26)), 300+i%90)
		}
		return fmt.Sprintf("http://site%d.example/p/%d", rng.Intn(40), i%13)
	}
}

// recordingReader notes every positional read made of a column file.
type recordingReader struct {
	*bytes.Reader
	reads []string
}

func (r *recordingReader) ReadAt(p []byte, off int64) (int, error) {
	r.reads = append(r.reads, fmt.Sprintf("%d+%d", off, len(p)))
	return r.Reader.ReadAt(p, off)
}

// The (offset, length) of every ReadAt — footer, header and refills — for a
// full scan, a skipping scan and a scan under adaptive readahead, per layout:
// the numbers below were recorded from the stream that allocated a chunk per
// refill and appended it, and filling the window in place must ask for exactly
// the same bytes in the same order (the I/O model charges per read).
func TestStreamWindowReadSequence(t *testing.T) {
	const n = 1200
	scans := []struct {
		name string
		opts ReaderOptions
		run  func(r Reader) error
	}{
		{"full", ReaderOptions{Chunk: 4096}, func(r Reader) error {
			for i := 0; i < n; i++ {
				if _, err := r.Value(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"skipping", ReaderOptions{Chunk: 4096}, func(r Reader) error {
			for i := int64(5); i < n; i += 171 {
				if err := r.SkipTo(i); err != nil {
					return err
				}
				if _, err := r.Value(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"adaptive", ReaderOptions{Chunk: 8192, ChunkMin: 512}, func(r Reader) error {
			for _, hop := range [][2]int64{{0, 40}, {500, 560}, {700, 1200}} {
				if err := r.SkipTo(hop[0]); err != nil {
					return err
				}
				for i := hop[0]; i < hop[1]; i++ {
					if _, err := r.Value(); err != nil {
						return err
					}
				}
			}
			return nil
		}},
	}
	want := map[string]string{
		"plain/full":        "53628+16 0+4096 4096+4096 8192+4096 12288+4096 16384+4096 20480+4096 24576+4096 28672+4096 32768+4096 36864+4016",
		"plain/skipping":    "53628+16 0+4096 4096+4096 8192+4096 12288+4096 16384+4096 20480+4096 24576+4096 28672+4096 32768+4096",
		"plain/adaptive":    "53628+16 0+8192 8192+8192 16384+8192 24576+8192 32768+8112",
		"skiplist/full":     "55388+16 0+4096 4096+4096 8192+4096 12288+4096 16384+4096 20480+4096 24576+4096 28672+4096 32768+4096 36864+4096 40960+1680",
		"skiplist/skipping": "55388+16 0+4096 4273+4096 10821+4096 17924+4096 22216+4096 28383+4096 35557+4096",
		"skiplist/adaptive": "55388+16 0+8192 10821+512 14181+512 17924+512 18436+1024 19460+2048 25029+512 25541+1024 26565+2048 28613+4096 32709+8192 40901+1739",
		"block/full":        "25524+16 0+4096 4096+4096 8192+1150",
		"block/skipping":    "25524+16 0+4096 4096+4096",
		"block/adaptive":    "25524+16 0+8192 8192+1150",
		"dcsl/full":         "54331+16 0+4096 4096+4096 8192+4096 12288+4096 16384+4096 20480+4096 24576+4096 28672+4096 32768+4096 36864+4096 40960+623",
		"dcsl/skipping":     "54331+16 0+4096 4096+4096 8192+4096 12288+4096 16384+4096 20480+4096 24576+4096 28672+4096 32768+4096 36864+4096",
		"dcsl/adaptive":     "54331+16 0+8192 8192+8192 16384+8192 24576+8192 32768+8192 40960+623",
	}
	for _, opts := range windowLayouts() {
		f, _ := writeColumn(t, serde.String(), opts, n, windowStrings(n))
		for _, sc := range scans {
			name := opts.Layout.String() + "/" + sc.name
			rec := &recordingReader{Reader: bytes.NewReader(f.Bytes())}
			r, err := NewReaderOpts(rec, serde.String(), sc.opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sc.run(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r.Release()
			if got := strings.Join(rec.reads, " "); got != want[name] {
				t.Errorf("%s: reads\n got %s\nwant %s", name, got, want[name])
			}
		}
	}
}

// windowScript drives one reader through scalar reads, skips, batch decodes
// and (where the layout probes) key probes, and returns everything it saw.
func windowScript(t *testing.T, name string, f *memFile, schema *serde.Schema, chunk, n int) ([]any, sim.CPUStats) {
	t.Helper()
	var st, sink sim.CPUStats
	r, err := NewReaderOpts(f.reader(), schema, ReaderOptions{Chunk: chunk}, &st)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer r.Release()
	var seen []any
	value := func() {
		v, err := r.Value()
		if err != nil {
			t.Fatalf("%s chunk %d: value %d: %v", name, chunk, r.Record(), err)
		}
		seen = append(seen, v)
	}
	skip := func(to int) {
		if err := r.SkipTo(int64(to)); err != nil {
			t.Fatalf("%s chunk %d: skip to %d: %v", name, chunk, to, err)
		}
	}
	decode := func(lo, hi int, boxed bool) {
		v := scan.NewVector(VecKindOf(schema), hi-lo)
		v.Boxed = boxed
		if err := r.(VectorDecoder).DecodeVector(int64(lo), int64(hi), v, &sink); err != nil {
			t.Fatalf("%s chunk %d: decode [%d,%d): %v", name, chunk, lo, hi, err)
		}
		out := make([]any, hi-lo)
		v.Box(nil, out, 1)
		seen = append(seen, out...)
	}
	for i := 0; i < 25; i++ {
		value()
	}
	skip(60)
	value()
	decode(70, 215, true) // crosses skip groups and a window dictionary
	skip(333)
	value()
	decode(340, 340+n/4, false)
	if kp, ok := r.(KeyVecProber); ok && schema.Kind == serde.KindMap {
		lo := 360 + n/4
		sel := scan.NewSelection(150)
		answered, err := kp.ProbeKeys("server", int64(lo), int64(lo+150), sel, &sink)
		if err != nil {
			t.Fatalf("%s chunk %d: probe: %v", name, chunk, err)
		}
		seen = append(seen, answered, sel.Count())
	}
	skip(n - 9)
	for i := 0; i < 9; i++ {
		value()
	}
	st.Add(sink)
	return seen, st
}

// Whatever the refill size — one byte, seven (nearly every decode meets the
// window's edge, and a skip-list run decode falls back to the value-at-a-time
// step), one skip group, a whole file — a reader sees the same values and
// charges the same CPU counters.
func TestStreamWindowChunkSizes(t *testing.T) {
	const n = 900
	cols := []struct {
		name   string
		schema *serde.Schema
		gen    func(i int) any
	}{
		{"string", serde.String(), windowStrings(n)},
		{"map", serde.MapOf(serde.String()), func(i int) any {
			m := map[string]any{"len": fmt.Sprint(i % 50)}
			if i%3 != 0 {
				m["server"] = "httpd"
			}
			return m
		}},
	}
	for _, col := range cols {
		for _, opts := range windowLayouts() {
			name := col.name + "/" + opts.Layout.String()
			f, _ := writeColumn(t, col.schema, opts, n, col.gen)
			want, wantSt := windowScript(t, name, f, col.schema, 0, n)
			for _, chunk := range []int{1, 7, 64, 4096} {
				got, gotSt := windowScript(t, name, f, col.schema, chunk, n)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s chunk %d: values differ from the default chunk's", name, chunk)
				}
				if gotSt != wantSt {
					t.Errorf("%s chunk %d: charged\n%+v\ndefault chunk\n%+v", name, chunk, gotSt, wantSt)
				}
			}
		}
	}
}

// With every window overwritten as it is released, values decoded before the
// release are intact after it, and the next reader — which takes the dirty
// window — still decodes its own file correctly.
func TestStreamWindowPoisonedRelease(t *testing.T) {
	poisonReleased = true
	defer func() { poisonReleased = false }()
	const n = 700
	cols := []struct {
		schema *serde.Schema
		gen    func(salt int) func(i int) any
	}{
		{serde.String(), func(salt int) func(i int) any {
			return func(i int) any { return fmt.Sprintf("value-%d-%d", salt, i%97) }
		}},
		{serde.Bytes(), func(salt int) func(i int) any {
			return func(i int) any { return []byte(fmt.Sprintf("raw-%d-%d", salt, i%31)) }
		}},
		{serde.MapOf(serde.String()), func(salt int) func(i int) any {
			return func(i int) any { return map[string]any{"k": fmt.Sprint(salt, i%11), "server": "httpd"} }
		}},
	}
	for _, col := range cols {
		for _, opts := range windowLayouts() {
			name := col.schema.Kind.String() + "/" + opts.Layout.String()
			var kept [][]any
			var wrote [][]any
			for salt := 0; salt < 3; salt++ {
				// Back to back over different files: each open takes the window
				// the last release poisoned.
				f, vals := writeColumn(t, col.schema, opts, n+salt*50, col.gen(salt))
				r, err := NewReaderOpts(f.reader(), col.schema, ReaderOptions{Chunk: 2048}, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var got []any
				for i := 0; i < len(vals)/2; i++ {
					v, err := r.Value()
					if err != nil {
						t.Fatalf("%s file %d: value %d: %v", name, salt, i, err)
					}
					got = append(got, v)
				}
				v := scan.NewVector(VecKindOf(col.schema), len(vals)-len(got))
				v.Boxed = true
				if err := r.(VectorDecoder).DecodeVector(int64(len(got)), int64(len(vals)), v, nil); err != nil {
					t.Fatalf("%s file %d: %v", name, salt, err)
				}
				boxed := make([]any, v.Len())
				v.Box(nil, boxed, 1)
				got = append(got, boxed...)
				r.Release()
				r.Release() // a second release is a no-op
				kept = append(kept, got)
				wrote = append(wrote, vals)
			}
			for k := range kept {
				for i, x := range kept[k] {
					if !serde.ValuesEqual(col.schema, x, wrote[k][i]) {
						t.Fatalf("%s file %d: record %d reads %v after the window was released, wrote %v", name, k, i, x, wrote[k][i])
					}
				}
			}
		}
	}
}

// A released reader still works: its next read takes a new window and refills
// at the cursor.
func TestStreamWindowReadAfterRelease(t *testing.T) {
	const n = 300
	for _, opts := range windowLayouts() {
		f, vals := writeColumn(t, serde.String(), opts, n, windowStrings(n))
		r, err := NewReaderOpts(f.reader(), serde.String(), ReaderOptions{Chunk: 512}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if i%37 == 5 {
				r.Release()
			}
			v, err := r.Value()
			if err != nil {
				t.Fatalf("%s: value %d: %v", opts.Layout, i, err)
			}
			if v != vals[i] {
				t.Fatalf("%s: record %d reads %v, wrote %v", opts.Layout, i, v, vals[i])
			}
		}
		r.Release()
	}
}

// Steady state — the second and later opens of same-sized files — refills
// allocate nothing: the window comes out of the pool at its working size, and
// goes back without an allocation of the pool's own.
func TestStreamWindowSteadyStateAllocs(t *testing.T) {
	data := make([]byte, 96<<10)
	for i := range data {
		data[i] = byte(i)
	}
	src := bytes.NewReader(data)
	s := &stream{}
	drain := func() {
		*s = stream{r: src, size: int64(len(data)), chunk: 8 << 10, chunkMin: 8 << 10, chunkMax: 8 << 10, dataEnd: int64(len(data)), seqEnd: -1}
		for s.remainingInFile() > 0 {
			// 1000 does not divide the chunk: bytes are carried across refills.
			if _, err := s.readFull(min(1000, int(s.remainingInFile()))); err != nil {
				t.Fatal(err)
			}
		}
		s.release()
	}
	drain() // the first open sizes the window
	allocs := testing.AllocsPerRun(20, drain)
	race.AllocCeiling(t, "a drain through a recycled window", allocs, 0)
}

// BenchmarkStreamRefill opens a stream over a 1 MB file, drains it by 64 KB
// refills and releases it: the bytes under every cursor, per byte read.
func BenchmarkStreamRefill(b *testing.B) {
	data := make([]byte, 1<<20)
	src := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newStream(src, 64<<10)
		for s.remainingInFile() > 0 {
			if _, err := s.readFull(min(1000, int(s.remainingInFile()))); err != nil {
				b.Fatal(err)
			}
		}
		s.release()
	}
}
