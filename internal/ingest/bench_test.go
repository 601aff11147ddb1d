package ingest_test

import (
	"runtime"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/race"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// The wall-clock benchmark's ingest_compact configuration: kilobyte pages,
// skip-list columns with the metadata map dictionary-compressed, statistics
// every 64 records, a 256-record memtable.
const flushSlice = 256

func flushOptions(schema *serde.Schema) ingest.Options {
	return ingest.Options{
		Dataset:         "/ingest",
		Schema:          schema,
		Key:             "url",
		TimeColumn:      "fetchTime",
		BucketMillis:    60_000,
		MemtableRecords: flushSlice,
		Load: core.LoadOptions{
			Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 64},
			PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 64}},
			SplitRecords: 2048,
		},
	}
}

// flushSlices generates n memtables' worth of first-crawl arrivals.
func flushSlices(n int) (*serde.Schema, [][]*serde.GenericRecord) {
	stream := workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl: workload.CrawlOptions{Seed: 20, ContentBytes: 1000},
		Seed:  20,
	})
	slices := make([][]*serde.GenericRecord, n)
	for i := range slices {
		slices[i] = make([]*serde.GenericRecord, flushSlice)
		for k := range slices[i] {
			slices[i][k] = stream.Next().Rec
		}
	}
	return stream.Crawl().Schema(), slices
}

func newFlushIngester(tb testing.TB, schema *serde.Schema) *ingest.Ingester {
	fs := hdfs.New(sim.SingleNode(), 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	ing, err := ingest.New(fs, flushOptions(schema))
	if err != nil {
		tb.Fatal(err)
	}
	return ing
}

func appendSlice(tb testing.TB, ing *ingest.Ingester, slice []*serde.GenericRecord) {
	for _, rec := range slice {
		if err := ing.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkIngestFlush is one memtable flush: 256 appends, the last of which
// writes a fresh partition (seven column files and their statistics) and
// commits a manifest. A new ingester every 16 slices keeps the manifest, and
// so the commit, from growing with b.N.
func BenchmarkIngestFlush(b *testing.B) {
	schema, slices := flushSlices(16)
	var ing *ingest.Ingester
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(slices) == 0 {
			b.StopTimer()
			ing = newFlushIngester(b, schema)
			b.StartTimer()
		}
		appendSlice(b, ing, slices[i%len(slices)])
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rows := float64(b.N * flushSlice)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}

// TestIngestFlushAllocCeiling: a flush allocates per row what the partition's
// statistics keep of it (a copy of the page for the histogram sample, bounds)
// and the memtable's own bookkeeping — 5 objects a row where the
// value-at-a-time collectors and per-value staging copies took 44. The
// ceiling leaves room for the runtime, not for a copy per value to return.
func TestIngestFlushAllocCeiling(t *testing.T) {
	schema, slices := flushSlices(6)
	ing := newFlushIngester(t, schema)
	appendSlice(t, ing, slices[0]) // fill the writers' pool
	next := 1
	allocs := testing.AllocsPerRun(len(slices)-2, func() { // and one warm-up call
		appendSlice(t, ing, slices[next])
		next++
	})
	race.AllocCeiling(t, "a 256-row flush", allocs, 8*flushSlice)
}
