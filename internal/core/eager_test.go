package core

import (
	"testing"

	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// loadSynthetic writes n records of the paper's Section 6.2 schema (six
// strings, six ints, one ten-entry map) in the default plain layout.
func loadSynthetic(tb testing.TB, fs *hdfs.FileSystem, dataset string, n, splitRecords int64) *serde.Schema {
	tb.Helper()
	gen := workload.NewSynthetic(11)
	w, err := NewWriter(fs, dataset, gen.Schema(), LoadOptions{SplitRecords: splitRecords}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return gen.Schema()
}

// drainEager runs an eager all-columns scan of dataset to completion and
// returns the records delivered.
func drainEager(tb testing.TB, fs *hdfs.FileSystem, dataset string, st *sim.TaskStats) int64 {
	tb.Helper()
	in := &InputFormat{}
	conf := &mapred.JobConf{InputPaths: []string{dataset}}
	splits, err := in.Splits(fs, conf)
	if err != nil {
		tb.Fatal(err)
	}
	var rows int64
	for _, sp := range splits {
		rr, err := in.Open(fs, conf, sp, hdfs.AnyNode, st)
		if err != nil {
			tb.Fatal(err)
		}
		for {
			_, v, ok, err := rr.Next()
			if err != nil {
				tb.Fatal(err)
			}
			if !ok {
				break
			}
			if _, eager := v.(*serde.GenericRecord); !eager {
				tb.Fatalf("eager scan produced %T", v)
			}
			rows++
		}
		rr.Close()
	}
	return rows
}

// BenchmarkReaderEagerWide is the Figure 7 all-columns case at the reader:
// an eager drain of the 13-column synthetic schema, reported per row.
func BenchmarkReaderEagerWide(b *testing.B) {
	const n = 8192
	fs := hdfs.New(sim.SingleNode(), 1)
	loadSynthetic(b, fs, "/wide", n, n/4)
	var st sim.TaskStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := drainEager(b, fs, "/wide", &st); rows != n {
			b.Fatalf("drained %d rows, want %d", rows, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// TestEagerAllocGuard holds the per-record allocation ceiling of an eager
// drain of the 13-column synthetic schema. What remains is the values' own:
// six string headers and about six int boxes, the map with its ten keys and
// ten boxed values — some 35.7 together. The record, its value slice and the
// six string payloads, ten more, come out of per-batch slabs and arenas.
func TestEagerAllocGuard(t *testing.T) {
	const n, ceiling = 4096, 37
	fs := hdfs.New(sim.SingleNode(), 1)
	loadSynthetic(t, fs, "/wide", n, n/2)
	drainEager(t, fs, "/wide", nil) // warm the scratch-vector pool
	allocs := testing.AllocsPerRun(3, func() {
		if rows := drainEager(t, fs, "/wide", nil); rows != n {
			t.Fatalf("drained %d rows, want %d", rows, n)
		}
	})
	if perRecord := allocs / n; perRecord > ceiling {
		t.Errorf("eager drain allocates %.1f objects per 13-column record, ceiling %d", perRecord, ceiling)
	}
}

// TestEagerRecordLifetime pins the contract on Reader.Next: eager records
// are never reused — kept past the next call, past later batches (which
// reuse the pooled scratch vectors their values were decoded into) and past
// Close, they still hold their values — and although the records of a batch
// share slabs and arenas, writing to one, by SetAt or into a byte slice in
// place or by appending to it, never shows in its neighbours.
func TestEagerRecordLifetime(t *testing.T) {
	const n = 2*eagerBatchRows + 300
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 3, ContentBytes: 250})
	schema := gen.Schema()
	content := schema.FieldIndex("content")
	for name, opts := range eqPropLayouts(schema) {
		opts.SplitRecords = n // one directory, three batches
		fs := hdfs.New(sim.SingleNode(), 1)
		w, err := NewWriter(fs, "/c", schema, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			if err := w.Append(gen.Record(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		in := &InputFormat{}
		conf := &mapred.JobConf{InputPaths: []string{"/c"}}
		splits, err := in.Splits(fs, conf)
		if err != nil || len(splits) != 1 {
			t.Fatalf("%s: %d splits, %v", name, len(splits), err)
		}
		rr, err := in.Open(fs, conf, splits[0], hdfs.AnyNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept := make([]*serde.GenericRecord, 0, n)
		scribbled := map[int]bool{}
		for {
			_, v, ok, err := rr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rec := v.(*serde.GenericRecord)
			if i := len(kept); i%5 == 2 {
				// Scribble over every fifth record, mid-drain.
				rec.SetAt(0, "clobbered")
				raw := rec.GetAt(content).([]byte)
				for j := range raw {
					raw[j] = '#'
				}
				_ = append(raw, "spill into whatever follows"...)
				scribbled[i] = true
			}
			kept = append(kept, rec)
		}
		rr.Close()
		if len(kept) != n {
			t.Fatalf("%s: %d records, want %d", name, len(kept), n)
		}
		// Churn the pool the batches drew from before looking back.
		drainEager(t, fs, "/c", nil)
		for i, rec := range kept {
			want := gen.Record(int64(i))
			for j, f := range schema.Fields {
				if scribbled[i] && (j == 0 || j == content) {
					continue
				}
				if !serde.ValuesEqual(f.Type, rec.GetAt(j), want.GetAt(j)) {
					t.Fatalf("%s: kept record %d field %s is %v, wrote %v", name, i, f.Name, rec.GetAt(j), want.GetAt(j))
				}
			}
		}
	}
}
