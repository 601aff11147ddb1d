package colfile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"colmr/internal/race"
	"colmr/internal/serde"
)

// The write path's kernels: a column writer per layout and value shape, and
// the statistics under every one of them. What they cost a row, what they
// allocate a row, and the ceilings that keep the pooled staging and the
// one-pass statistics from quietly growing back.

type writeShape struct {
	name   string
	schema *serde.Schema
	gen    func(rng *rand.Rand, i int) any
}

// writeShapes are the value shapes of the crawl schema: a small scalar, a
// URL-sized string, a kilobyte of page content (all distinct, as pages
// are), a header map over a small key universe.
func writeShapes() []writeShape {
	return []writeShape{
		{"int", serde.Int(), func(rng *rand.Rand, i int) any { return int32(rng.Intn(1 << 20)) }},
		{"string", serde.String(), func(rng *rand.Rand, i int) any {
			return fmt.Sprintf("http://w%d.example.com/pages/%d/%06x.html", rng.Intn(8), i, rng.Intn(1<<24))
		}},
		{"bytes1k", serde.Bytes(), func(rng *rand.Rand, i int) any {
			b := make([]byte, 1000)
			rng.Read(b)
			return b
		}},
		{"map", serde.MapOf(serde.String()), func(rng *rand.Rand, i int) any {
			m := map[string]any{}
			for k := 3 + rng.Intn(4); k > 0; k-- {
				m[fmt.Sprintf("header-%d", rng.Intn(9))] = fmt.Sprintf("value-%d", rng.Intn(40))
			}
			return m
		}},
	}
}

var writeLayouts = []struct {
	name string
	opts Options
}{
	{"plain", Options{Layout: Plain}},
	{"skiplist", Options{Layout: SkipList}},
	{"block_lzo", Options{Layout: Block, Codec: "lzo"}},
	{"dcsl", Options{Layout: DCSL}},
}

func writeValues(shape writeShape, n int) []any {
	rng := rand.New(rand.NewSource(20))
	vals := make([]any, n)
	for i := range vals {
		vals[i] = shape.gen(rng, i)
	}
	return vals
}

func writeFile(tb testing.TB, schema *serde.Schema, opts Options, vals []any) {
	w, err := NewWriter(io.Discard, schema, opts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

// reportPerRow reports a benchmark's time, bytes allocated and objects
// allocated per row written since before was read.
func reportPerRow(b *testing.B, before *runtime.MemStats, rows int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(rows), "B/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rows), "allocs/row")
}

// BenchmarkColumnWrite writes 4096-row column files, the size a compacted
// split-directory's are: every layout by every shape it can hold.
func BenchmarkColumnWrite(b *testing.B) {
	const rows = 4096
	for _, layout := range writeLayouts {
		for _, shape := range writeShapes() {
			if layout.opts.Layout == DCSL && shape.name == "int" {
				continue
			}
			b.Run(layout.name+"/"+shape.name, func(b *testing.B) {
				vals := writeValues(shape, rows)
				writeFile(b, shape.schema, layout.opts, vals) // fill the pool
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					writeFile(b, shape.schema, layout.opts, vals)
				}
				reportPerRow(b, &before, b.N*rows)
			})
		}
	}
}

// BenchmarkStatsObserve is the statistics alone, at the benchmark's group
// size: observe on every value, finish at the end.
func BenchmarkStatsObserve(b *testing.B) {
	const rows = 4096
	for _, shape := range writeShapes()[1:] {
		b.Run(shape.name, func(b *testing.B) {
			vals := writeValues(shape, rows)
			sw := new(statsWriter)
			var out []byte
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				zm := newStatsWriter(sw, shape.schema, 64, false)
				for _, v := range vals {
					zm.observe(v)
				}
				var err error
				if out, err = zm.finish(out[:0]); err != nil {
					b.Fatal(err)
				}
				sw.reset()
			}
			reportPerRow(b, &before, b.N*rows)
		})
	}
}

// TestWriterPoolConcurrent: every writer in the process draws its scratch
// from one pool, so writers on different goroutines trade scratch that other
// layouts and other columns have used. Each must still write the bytes it
// writes alone. The test's four goroutines each write every file once; the
// benchmark of the same name has them write it three times.
func TestWriterPoolConcurrent(t *testing.T) {
	t.Parallel()
	checkWriterPoolConcurrent(t, 1)
}

func BenchmarkWriterPoolConcurrent(b *testing.B) {
	for range b.N {
		checkWriterPoolConcurrent(b, 3)
	}
}

func checkWriterPoolConcurrent(t testing.TB, rounds int) {
	type job struct {
		schema *serde.Schema
		opts   Options
		vals   []any
		want   []byte
	}
	write := func(j *job) []byte {
		f := &memFile{}
		w, err := NewWriter(f, j.schema, j.opts, nil)
		if err != nil {
			t.Error(err)
			return nil
		}
		for _, v := range j.vals {
			if err := w.Append(v); err != nil {
				t.Error(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Error(err)
		}
		return f.Bytes()
	}
	var jobs []*job
	for _, layout := range writeLayouts {
		for _, shape := range writeShapes() {
			if layout.opts.Layout == DCSL && shape.name == "int" {
				continue
			}
			j := &job{schema: shape.schema, opts: layout.opts, vals: writeValues(shape, 700)}
			j.want = write(j)
			jobs = append(jobs, j)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for range rounds {
				for i := range jobs {
					j := jobs[(i+g*5)%len(jobs)]
					if got := write(j); !bytes.Equal(got, j.want) {
						t.Errorf("goroutine %d: a %v file of %s values differs from the one written alone", g, j.opts.Layout, j.schema.Kind)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWriterClosed: Close hands the writer's scratch to the next writer, so
// a closed writer refuses further use instead of scribbling on it.
func TestWriterClosed(t *testing.T) {
	for _, layout := range writeLayouts {
		w, err := NewWriter(io.Discard, serde.String(), layout.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append("a"); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Append("b"); err != errClosed {
			t.Errorf("%s: Append after Close = %v, want %v", layout.name, err, errClosed)
		}
		if err := w.Close(); err != errClosed {
			t.Errorf("%s: second Close = %v, want %v", layout.name, err, errClosed)
		}
		if w.Count() != 1 {
			t.Errorf("%s: Count after Close = %d, want 1", layout.name, w.Count())
		}
	}
}

// countingFile counts the Writes a column writer issues.
type countingFile struct {
	memFile
	writes int
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.writes++
	return f.memFile.Write(p)
}

// TestWriterOneWriteAtClose: a file whose values fit one window or frame
// costs exactly two writes — the header, then the window or frame, the
// statistics and the footer together — and reads back whole.
func TestWriterOneWriteAtClose(t *testing.T) {
	for _, layout := range writeLayouts[1:] {
		for _, shape := range writeShapes()[1:] {
			vals := writeValues(shape, 8) // under a window (10) and a frame
			f := &countingFile{}
			w, err := NewWriter(f, shape.schema, layout.opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if err := w.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if f.writes != 2 {
				t.Errorf("%s/%s: a one-window file took %d writes, want 2 (header, close)", layout.name, shape.name, f.writes)
			}
			r, err := NewReader(f.reader(), shape.schema, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", layout.name, shape.name, err)
			}
			if r.Total() != int64(len(vals)) {
				t.Errorf("%s/%s: the file holds %d records, want %d", layout.name, shape.name, r.Total(), len(vals))
			}
		}
	}
}

// TestWriterAllocCeilings: a writer that found its scratch in the pool
// allocates, per value, only what its file must keep after the value is
// gone — bounds and histogram samples. For a kilobyte []byte column on a
// skip list that is under one object a value once the file is long enough
// for the sample to thin out; for strings and scalars, which need no copy,
// it is a small fraction of one. The test writes 8 192-row files, the
// fewest rows at which the kilobyte column is under one object a value; the
// benchmark of the same name writes 16 384.
func TestWriterAllocCeilings(t *testing.T) { checkWriterAllocCeilings(t, 8192) }

func BenchmarkWriterAllocCeilings(b *testing.B) {
	for range b.N {
		checkWriterAllocCeilings(b, 16384)
	}
}

func checkWriterAllocCeilings(t testing.TB, rows int) {
	for _, tc := range []struct {
		layout, shape string
		perValue      float64
	}{
		{"skiplist", "bytes1k", 1},
		{"skiplist", "string", 0.25},
		{"skiplist", "int", 0.25},
		{"plain", "string", 0.25},
		{"block_lzo", "string", 0.25},
	} {
		var opts Options
		for _, l := range writeLayouts {
			if l.name == tc.layout {
				opts = l.opts
			}
		}
		for _, shape := range writeShapes() {
			if shape.name != tc.shape {
				continue
			}
			vals := writeValues(shape, rows)
			allocs := testing.AllocsPerRun(3, func() { writeFile(t, shape.schema, opts, vals) })
			what := fmt.Sprintf("a %d-row %s file of %s values (%.3f objects a value)", rows, tc.layout, tc.shape, allocs/float64(rows))
			race.AllocCeiling(t, what, allocs, tc.perValue*float64(rows))
		}
	}
}
