package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/race"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// sequentialSplit is the oracle for SplitWriter's rounds: the loop that
// wrote a split-directory before there were rounds. One value per column
// per record, each straight to its file, all charging the caller's stats;
// then each column closed in schema order.
func sequentialSplit(fs *hdfs.FileSystem, dir string, schema *serde.Schema, opts LoadOptions, stats *sim.TaskStats, recs []*serde.GenericRecord) error {
	if err := fs.WriteFile(dir+"/"+SchemaFile, []byte(schema.String()), opts.WriterNode); err != nil {
		return err
	}
	stats.IO.BytesWritten += int64(len(schema.String()))
	files := make([]*hdfs.FileWriter, len(schema.Fields))
	cols := make([]colfile.Writer, len(schema.Fields))
	for i, f := range schema.Fields {
		fw, err := fs.Create(dir+"/"+f.Name, opts.WriterNode)
		if err != nil {
			return err
		}
		fw.SetStats(&stats.IO)
		if cols[i], err = colfile.NewWriter(fw, f.Type, opts.layoutFor(f.Name), &stats.CPU); err != nil {
			return err
		}
		files[i] = fw
	}
	for _, rec := range recs {
		for i, cw := range cols {
			v := rec.GetAt(i)
			if v == nil {
				return fmt.Errorf("core: field %q is unset", schema.Fields[i].Name)
			}
			if err := cw.Append(v); err != nil {
				return fmt.Errorf("core: column %q: %w", schema.Fields[i].Name, err)
			}
		}
	}
	for i, cw := range cols {
		if err := cw.Close(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
	}
	return nil
}

// roundsSplit writes recs through a SplitWriter in rounds of n.
func roundsSplit(fs *hdfs.FileSystem, dir string, schema *serde.Schema, opts LoadOptions, stats *sim.TaskStats, recs []*serde.GenericRecord, n int) error {
	w, err := NewSplitWriter(fs, dir, schema, opts, stats)
	if err != nil {
		return err
	}
	for len(recs) > 0 {
		k := min(n, len(recs))
		if err := w.AppendRecords(recs[:k]); err != nil {
			return err
		}
		recs = recs[k:]
	}
	return w.Close()
}

// writeSchema is a random record schema over every kind a column file
// holds, with one map, one string and one bytes column so each test schema
// has columns DCSL can take.
func writeSchema(rng *rand.Rand) *serde.Schema {
	kinds := []func() *serde.Schema{
		serde.Int, serde.Long, serde.Double, serde.String, serde.Bool, serde.Time, serde.Bytes,
		func() *serde.Schema { return serde.MapOf(serde.Int()) },
		func() *serde.Schema { return serde.ArrayOf(serde.String()) },
	}
	fields := []serde.Field{
		{Name: "m", Type: serde.MapOf(serde.String())},
		{Name: "s", Type: serde.String()},
		{Name: "b", Type: serde.Bytes()},
	}
	for i := rng.Intn(4); i > 0; i-- {
		fields = append(fields, serde.Field{Name: fmt.Sprintf("c%d", len(fields)), Type: kinds[rng.Intn(len(kinds))]()})
	}
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	return serde.RecordOf("Round", fields...)
}

// writeValue is a random value of s. Strings and bytes run to a few hundred
// bytes so a column spans several 64 KiB blocks; a value domain small
// enough that dictionaries and distinct counts see repeats.
func writeValue(rng *rand.Rand, s *serde.Schema) any {
	switch s.Kind {
	case serde.KindBool:
		return rng.Intn(2) == 0
	case serde.KindInt:
		return int32(rng.Intn(1000))
	case serde.KindLong, serde.KindTime:
		return int64(rng.Intn(100000))
	case serde.KindDouble:
		return float64(rng.Intn(1000)) / 8
	case serde.KindString:
		return fmt.Sprintf("v%d/", rng.Intn(300)) + strings.Repeat("x", rng.Intn(60))
	case serde.KindBytes:
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		return b
	case serde.KindMap:
		m := make(map[string]any)
		for i := rng.Intn(5); i > 0; i-- {
			m[fmt.Sprintf("k%d", rng.Intn(12))] = writeValue(rng, s.Elem)
		}
		return m
	case serde.KindArray:
		arr := make([]any, rng.Intn(4))
		for i := range arr {
			arr[i] = writeValue(rng, s.Elem)
		}
		return arr
	}
	panic("unhandled kind")
}

// misfit is a value no column of s's kind takes.
func misfit(s *serde.Schema) any {
	if s.Kind == serde.KindInt {
		return "not an int"
	}
	return int32(7)
}

// TestSplitWriterRoundsMatchSequential: whatever the rounds, a
// split-directory is the record-at-a-time loop's — every file's bytes and
// block placement, and every CPU and I/O charge — under every layout, with
// and without per-group statistics and Bloom filters, under both placement
// policies; and a bad value fails the write with the error that loop gives.
// The test writes 1 300 records; the benchmark of the same name writes 2 600.
func TestSplitWriterRoundsMatchSequential(t *testing.T) {
	t.Parallel()
	checkSplitWriterRoundsMatchSequential(t, 1300)
}

func BenchmarkSplitWriterRoundsMatchSequential(b *testing.B) {
	for range b.N {
		checkSplitWriterRoundsMatchSequential(b, 2600)
	}
}

// checkSplitWriterRoundsMatchSequential writes records records, more than
// 1 016. The bad values land between 5/16 and 9/16 of the way from record
// 1 000 to the end, so rounds of 999 and 1 000 have written one round
// before them; at 2 600 records that is records 1 500 to 1 899.
func checkSplitWriterRoundsMatchSequential(t testing.TB, records int) {
	rng := rand.New(rand.NewSource(30))
	layouts := []colfile.Options{
		{Layout: colfile.Plain},
		{Layout: colfile.SkipList, Levels: []int{100, 10}},
		{Layout: colfile.Block, Codec: "lzo", BlockBytes: 4 << 10},
		{Layout: colfile.DCSL, Levels: []int{100, 10}},
	}
	for _, layout := range layouts {
		schema := writeSchema(rng)
		layout.StatsEvery = []int{0, 16, 64}[rng.Intn(3)]
		layout.NoBloom = rng.Intn(2) == 0
		opts := LoadOptions{Default: layout, WriterNode: hdfs.NodeID(rng.Intn(8))}
		if layout.Layout == colfile.DCSL {
			opts.Default = layouts[1]
			opts.PerColumn = map[string]colfile.Options{"m": layout, "s": layout, "b": layout}
		}
		recs := make([]*serde.GenericRecord, records)
		for r := range recs {
			recs[r] = serde.NewRecord(schema)
			for i, f := range schema.Fields {
				recs[r].SetAt(i, writeValue(rng, f.Type))
			}
		}
		for _, cpp := range []bool{false, true} {
			// A file of another directory written first and last puts the
			// filesystem's generator and node usage in play.
			write := func(split func(fs *hdfs.FileSystem) error) (*hdfs.FileSystem, error) {
				fs := testFS(t, 8)
				if cpp {
					fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
				}
				if err := fs.WriteFile("/other/before", bytes.Repeat([]byte{1}, 100<<10), hdfs.AnyNode); err != nil {
					t.Fatal(err)
				}
				if err := split(fs); err != nil {
					return nil, err
				}
				if err := fs.WriteFile("/other/after", bytes.Repeat([]byte{2}, 200<<10), hdfs.AnyNode); err != nil {
					t.Fatal(err)
				}
				return fs, nil
			}
			var want sim.TaskStats
			wantFS, err := write(func(fs *hdfs.FileSystem) error { return sequentialSplit(fs, "/d/s0", schema, opts, &want, recs) })
			if err != nil {
				t.Fatalf("%v/cpp=%v: the loop: %v", layout.Layout, cpp, err)
			}
			_, wantTree := treeDigest(t, wantFS, "/")
			for _, n := range []int{1, 7, 999, 1000, 2500} {
				name := fmt.Sprintf("%v/stats%d/nobloom=%v/round%d/cpp=%v", layout.Layout, layout.StatsEvery, layout.NoBloom, n, cpp)
				var got sim.TaskStats
				gotFS, err := write(func(fs *hdfs.FileSystem) error { return roundsSplit(fs, "/d/s0", schema, opts, &got, recs, n) })
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want != got {
					t.Errorf("%s: rounds charged\n%+v\nthe loop charged\n%+v", name, got, want)
				}
				if files, gotTree := treeDigest(t, gotFS, "/"); gotTree != wantTree {
					t.Errorf("%s: rounds wrote tree %s (%d files), the loop %s", name, gotTree, files, wantTree)
				}
			}
		}

		// Bad values at (r, c), later in the same record, and in a later
		// record: the loop meets (r, c) first, and so must every round.
		bad := make([]*serde.GenericRecord, records)
		copy(bad, recs)
		r, c := 1000+(records-1000)*5/16+rng.Intn((records-1000)/4), rng.Intn(len(schema.Fields))
		for _, at := range [][2]int{{r + 3, 0}, {r, len(schema.Fields) - 1}, {r, c}} {
			rec := serde.NewRecord(schema)
			for i := range schema.Fields {
				rec.SetAt(i, bad[at[0]].GetAt(i))
			}
			rec.SetAt(at[1], misfit(schema.Fields[at[1]].Type))
			bad[at[0]] = rec
		}
		var st sim.TaskStats
		wantErr := sequentialSplit(testFS(t, 8), "/d/s0", schema, opts, &st, bad)
		if wantErr == nil {
			t.Fatalf("%v: the loop wrote a misfit value at record %d column %d", layout.Layout, r, c)
		}
		for _, n := range []int{1, 7, 999, 1000, 2500} {
			err := roundsSplit(testFS(t, 8), "/d/s0", schema, opts, &st, bad, n)
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%v/round%d: bad value at record %d column %d: rounds say %v, the loop %v", layout.Layout, n, r, c, err, wantErr)
			}
		}
	}
}

// TestWriterRefusesBeforeOpening: a record of another schema, or with an
// unset field, is refused before the writer opens a split-directory for it;
// the records before it in the call are written.
func TestWriterRefusesBeforeOpening(t *testing.T) {
	other := serde.MustParse(`Other { string url }`)
	mismatched := serde.NewRecord(other)
	mismatched.Set("url", "http://x")
	unset := serde.NewRecord(crawlSchema)
	unset.Set("url", "http://y")
	rng := rand.New(rand.NewSource(77))
	good := []*serde.GenericRecord{makeRecord(rng, 0), makeRecord(rng, 1)}
	for _, tc := range []struct {
		name   string
		recs   []*serde.GenericRecord
		err    string
		stored int64
	}{
		{"mismatched first record", []*serde.GenericRecord{mismatched}, "core: record schema does not match dataset schema", 0},
		{"unset field in the first record", []*serde.GenericRecord{unset, good[0]}, `core: field "fetchTime" is unset`, 0},
		{"unset field after two records", []*serde.GenericRecord{good[0], good[1], unset}, `core: field "fetchTime" is unset`, 2},
	} {
		fs := testFS(t, 4)
		w, err := NewWriter(fs, "/d", crawlSchema, LoadOptions{SplitRecords: 100}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendRecords(tc.recs); err == nil || err.Error() != tc.err {
			t.Errorf("%s: AppendRecords = %v, want %s", tc.name, err, tc.err)
		}
		if tc.stored == 0 {
			if fs.Exists("/d/s0") {
				t.Errorf("%s: the refused record left /d/s0 behind", tc.name)
			}
			continue
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := w.Written(); len(got) != 1 || got[0] != (WrittenSplit{Dir: "/d/s0", Records: tc.stored}) {
			t.Errorf("%s: the writer wrote %+v, want %d records in /d/s0", tc.name, got, tc.stored)
		}
	}
	// Append is a round of one: the same refusal.
	fs := testFS(t, 4)
	w, err := NewWriter(fs, "/d", crawlSchema, LoadOptions{SplitRecords: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mismatched); err == nil {
		t.Error("Append took a record of another schema")
	}
	if fs.Exists("/d/s0") {
		t.Error("Append of a mismatched first record left /d/s0 behind")
	}
}

// appendBench is what BenchmarkSplitWriterAppendRecords writes: crawl pages
// with kilobyte content, under the ingest layout (skip lists, the metadata
// map dictionary-compressed, statistics every 64 records).
func appendBench(n int) (*serde.Schema, LoadOptions, []*serde.GenericRecord) {
	stream := workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl: workload.CrawlOptions{Seed: 20, ContentBytes: 1000},
		Seed:  20,
	})
	recs := make([]*serde.GenericRecord, n)
	for i := range recs {
		recs[i] = stream.Next().Rec
	}
	opts := LoadOptions{
		Default:   colfile.Options{Layout: colfile.SkipList, StatsEvery: 64},
		PerColumn: map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 64}},
	}
	return stream.Crawl().Schema(), opts, recs
}

// writeBenchSplit writes recs as one split-directory in rounds of round.
func writeBenchSplit(tb testing.TB, fs *hdfs.FileSystem, dir string, schema *serde.Schema, opts LoadOptions, recs []*serde.GenericRecord, round int) {
	var st sim.TaskStats
	if err := roundsSplit(fs, dir, schema, opts, &st, recs, round); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSplitWriterAppendRecords writes a 1024-record split-directory of
// crawl pages: record at a time (round1), as a flush does (round256) and as
// a compaction does (round1024).
func BenchmarkSplitWriterAppendRecords(b *testing.B) {
	schema, opts, recs := appendBench(1024)
	for _, round := range []int{1, 256, 1024} {
		b.Run(fmt.Sprintf("round%d", round), func(b *testing.B) {
			fs := testFS(b, 4)
			writeBenchSplit(b, fs, "/warm", schema, opts, recs, round) // fill the pools
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%16 == 0 {
					b.StopTimer()
					fs = testFS(b, 4) // keep the store from growing with b.N
					b.StartTimer()
				}
				writeBenchSplit(b, fs, fmt.Sprintf("/d/s%d", i), schema, opts, recs, round)
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			rows := float64(b.N * len(recs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
		})
	}
}

// TestSplitWriterRoundAllocCeiling: a split-directory written in rounds
// allocates what the record-at-a-time loop allocates for the same records,
// plus a few objects a fan-out (its goroutines; 16 leaves room for pooled
// logs regrowing after a collection) — never an object a record or a value.
func TestSplitWriterRoundAllocCeiling(t *testing.T) {
	schema, opts, recs := appendBench(1024)
	fs := testFS(t, 4)
	writeBenchSplit(t, fs, "/warm", schema, opts, recs, 256) // fill the pools
	dir := 0
	write := func(round int) func() {
		return func() {
			dir++
			writeBenchSplit(t, fs, fmt.Sprintf("/d/s%d", dir), schema, opts, recs, round)
		}
	}
	seq := testing.AllocsPerRun(5, write(1))
	rounds := testing.AllocsPerRun(5, write(256))
	const fanOuts = 1024/256 + 1 // the rounds, and Close
	race.AllocCeiling(t, fmt.Sprintf("a 1024-record split-directory in rounds of 256 (record at a time: %.0f)", seq), rounds, seq+16*fanOuts)
}
