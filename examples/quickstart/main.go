// Quickstart: the full CIF/COF cycle in one file — define a schema, load
// records into column-oriented storage on a simulated HDFS cluster with
// co-located placement, and query it with the typed builder API
// (projection + predicate pushdown) through a long-lived cached session.
package main

import (
	"fmt"
	"log"
	"strings"

	"colmr"
)

func main() {
	// A 40-node cluster (the paper's setup) with the co-locating
	// ColumnPlacementPolicy installed.
	fs := colmr.NewFileSystem(colmr.DefaultCluster(), 42)
	fs.SetPlacementPolicy(colmr.NewColumnPlacementPolicy())

	// Schemas use the paper's DSL, complex types included.
	schema := colmr.MustParseSchema(`
		Visit {
		  string url,
		  int status,
		  map<string> headers
		}`)

	// Load records through COF: split-directories of per-column files.
	w, err := colmr.NewColumnWriter(fs, "/data/visits", schema, colmr.LoadOptions{SplitRecords: 250}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		rec := colmr.NewRecord(schema)
		rec.Set("url", fmt.Sprintf("http://example.com/page/%d", i))
		status := int32(200)
		if i%7 == 0 {
			status = 404
		}
		rec.Set("status", status)
		rec.Set("headers", map[string]any{
			"content-type": "text/html",
			"server":       "httpd",
		})
		if err := w.Append(rec); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// Query through the typed builder: the projection means only the url
	// and status files are opened (the headers column is never touched),
	// and the predicate is pushed below record materialization — zone-map
	// statistics prune whole record groups of non-404 rows.
	job := colmr.ScanDataset("/data/visits").
		Columns("url", "status").
		Where(colmr.Eq("status", int32(404))).
		Job(colmr.MapperFunc(func(key, value any, emit colmr.Emit) error {
			url, err := value.(colmr.Record).Get("url")
			if err != nil {
				return err
			}
			return emit(url, nil)
		}))
	job.Conf.OutputPath = "/out/errors"
	job.Conf.NumReducers = 1
	job.Reducer = colmr.ReducerFunc(func(key any, values []any, emit colmr.Emit) error {
		return emit(key, nil)
	})
	job.Output = colmr.TextOutput{}

	// The builder only fills in the typed ScanSpec on the conf; a literal
	// spells the same scan:
	//
	//	conf := colmr.JobConf{InputPaths: []string{"/data/visits"}, Scan: &colmr.ScanSpec{
	//		Columns:   []string{"url", "status"},
	//		Predicate: colmr.Eq("status", int32(404)),
	//	}}

	// For a steady stream of queries, run jobs through a long-lived
	// Session instead of RunJob: an LRU-bounded cache keeps hot column
	// regions resident across rounds (TaskStats.CacheHits reports reuse).
	session := colmr.NewSession(fs, colmr.SessionOptions{CacheBytes: 64 << 20})
	res, err := session.Run(job)
	if err != nil {
		log.Fatal(err)
	}

	out, err := fs.ReadFile("/out/errors/part-00000")
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Count(string(out), "\n")
	fmt.Printf("found %d pages with status 404 (expected 143)\n", lines)
	fmt.Printf("records scanned: %d, bytes read: %.2f MB (all local: %v)\n",
		res.Total.RecordsProcessed,
		float64(res.Total.IO.LogicalBytes)/(1<<20),
		res.Total.IO.RemoteBytes == 0)
}
