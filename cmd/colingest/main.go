// Colingest drives the streaming write path end to end: a colgen arrival
// stream (crawl pages arriving at a configurable mean rate, some fraction
// recrawls of already-seen URLs) feeds an ingest.Ingester, which buffers a
// memtable, flushes time-partitioned generations, resolves upserts with
// position deletes, and periodically compacts via a MapReduce job over the
// engine itself. A colserve server answers count(*) queries over the same
// dataset while it is being written — every query is planned against a
// committed manifest generation, so merge-on-read and cache invalidation
// run live against the writer.
//
// Usage:
//
//	colingest [-records N] [-rate R] [-recrawl F] [-skew S] [-memtable N]
//	          [-bucket-ms MS] [-compact-every N] [-query-every N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/scan"
	"colmr/internal/serve"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

func main() {
	var (
		records      = flag.Int64("records", 5000, "arrivals to ingest")
		rate         = flag.Float64("rate", 200, "mean arrivals per second")
		recrawl      = flag.Float64("recrawl", 0.25, "fraction of arrivals revisiting a seen URL")
		skew         = flag.Float64("skew", 0.5, "content-size skew exponent (0 = none)")
		memtable     = flag.Int("memtable", 256, "memtable records before auto-flush")
		bucketMs     = flag.Int64("bucket-ms", 60_000, "time-partition bucket width in fetchTime ms")
		compactEvery = flag.Int("compact-every", 4, "flushes per compaction (0 = manual only)")
		queryEvery   = flag.Int64("query-every", 1000, "live count(*) query every N arrivals (0 = never)")
		seed         = flag.Int64("seed", 2011, "stream seed")
	)
	flag.Parse()

	fs := hdfs.New(sim.DefaultCluster(), *seed)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	srv := serve.New(fs, serve.Options{CacheBytes: 64 << 20})
	defer srv.Close()

	stream := workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl:           workload.CrawlOptions{Seed: *seed},
		Seed:            *seed,
		RatePerSec:      *rate,
		RecrawlFraction: *recrawl,
		ContentSkew:     *skew,
	})

	const dataset = "/live/crawl"
	var stats sim.TaskStats
	ing, err := ingest.New(fs, ingest.Options{
		Dataset:         dataset,
		Schema:          stream.Crawl().Schema(),
		Key:             "url",
		TimeColumn:      "fetchTime",
		BucketMillis:    *bucketMs,
		MemtableRecords: *memtable,
		CompactEvery:    *compactEvery,
		Load:            core.LoadOptions{SplitRecords: 4096},
		Stats:           &stats,
	})
	check(err)
	srv.ServeLive(ing)

	agg, err := scan.ParseAggregate("count, min(fetchTime), max(fetchTime)")
	check(err)
	query := func(label string) {
		tk, err := srv.Enqueue("colingest", core.ScanDataset(dataset).Aggregate(agg).AggJob())
		check(err)
		res, err := tk.Wait()
		check(err)
		vals := res.Agg.Rows()[0].Values
		fmt.Printf("  [%s] gen %d: live rows %v, fetchTime span [%v, %v], fresh partitions scanned %d\n",
			label, ing.Generation(), vals[0], vals[1], vals[2], res.Total.FreshPartitionsScanned)
	}

	fmt.Printf("ingesting %d arrivals at %.0f/s (recrawl %.2f, skew %.2f) into %s\n",
		*records, *rate, *recrawl, *skew, dataset)
	for i := int64(0); i < *records; i++ {
		a := stream.Next()
		check(ing.Append(a.Rec))
		if *queryEvery > 0 && (i+1)%*queryEvery == 0 && ing.Generation() > 0 {
			query(fmt.Sprintf("%d arrivals", i+1))
		}
	}
	check(ing.Flush())
	query("flushed")
	check(ing.Compact())
	check(ing.GC())
	query("compacted")

	cacheBytes, regions := srv.Session().CacheUsage()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "\narrivals\t%d\n", *records)
	fmt.Fprintf(tw, "distinct URLs\t%d\n", stream.Seen())
	fmt.Fprintf(tw, "upserts resolved\t%d\n", stats.UpsertsResolved)
	fmt.Fprintf(tw, "manifest generation\t%d\n", ing.Generation())
	fmt.Fprintf(tw, "flushed files\t%d\n", stats.FlushedFiles)
	fmt.Fprintf(tw, "compaction bytes\t%d\n", stats.CompactionBytes)
	fmt.Fprintf(tw, "dataset bytes on disk\t%d\n", fs.TreeSize(dataset))
	fmt.Fprintf(tw, "scan cache\t%d bytes in %d regions\n", cacheBytes, regions)
	tw.Flush()
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "colingest: %v\n", err)
		os.Exit(1)
	}
}
