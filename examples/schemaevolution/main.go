// Schemaevolution demonstrates the CIF advantage Section 4.3 highlights:
// adding a derived column to an existing dataset is one new file per
// split-directory — the existing column files are untouched. (With RCFile
// the entire dataset would be read and rewritten.)
package main

import (
	"fmt"
	"log"
	"strings"

	"colmr"
)

func main() {
	fs := colmr.NewFileSystem(colmr.DefaultCluster(), 11)
	fs.SetPlacementPolicy(colmr.NewColumnPlacementPolicy())

	// Load a crawl dataset.
	crawl := colmr.NewCrawl(colmr.CrawlOptions{Seed: 11, ContentBytes: 1500})
	w, err := colmr.NewColumnWriter(fs, "/data/crawl", crawl.Schema(), colmr.LoadOptions{SplitRecords: 300}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < 1200; i++ {
		if err := w.Append(crawl.Record(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("schema before:", mustSchema(fs, "/data/crawl").FieldNames())
	before := fs.TreeSize("/data/crawl")

	// Business needs evolved: reports now need the page's host. Derive it
	// from the url column — the only column the evolution job reads.
	var stats colmr.TaskStats
	err = colmr.AddColumn(fs, "/data/crawl", "host", colmr.StringSchema(),
		colmr.ColumnOptions{Layout: colmr.LayoutSkipList},
		[]string{"url"},
		func(rec colmr.Record) (any, error) {
			u, err := rec.Get("url")
			if err != nil {
				return nil, err
			}
			host := strings.TrimPrefix(u.(string), "http://")
			if i := strings.IndexByte(host, '/'); i >= 0 {
				host = host[:i]
			}
			return host, nil
		}, &stats)
	if err != nil {
		log.Fatal(err)
	}

	after := fs.TreeSize("/data/crawl")
	fmt.Println("schema after: ", mustSchema(fs, "/data/crawl").FieldNames())
	fmt.Printf("bytes read to evolve:    %.2f MB (just the url column)\n",
		float64(stats.IO.LogicalBytes)/(1<<20))
	fmt.Printf("dataset grew by:         %.2f MB of %.2f MB total\n",
		float64(after-before)/(1<<20), float64(after)/(1<<20))

	// The new column queries like any other.
	conf := colmr.ScanDataset("/data/crawl").Columns("host").Conf()
	conf.NumReducers, conf.OutputPath = 1, "/out/hosts"
	job := &colmr.Job{
		Conf:  conf,
		Input: &colmr.ColumnInputFormat{},
		Mapper: colmr.MapperFunc(func(key, value any, emit colmr.Emit) error {
			h, err := value.(colmr.Record).Get("host")
			if err != nil {
				return err
			}
			return emit(h, int64(1))
		}),
		Reducer: colmr.ReducerFunc(func(key any, values []any, emit colmr.Emit) error {
			return emit(key, int64(len(values)))
		}),
		Output: colmr.TextOutput{},
	}
	res, err := colmr.RunJob(fs, job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distinct hosts counted via the new column: %d\n", res.ReduceGroups)
}

func mustSchema(fs *colmr.FileSystem, dataset string) *colmr.Schema {
	s, err := colmr.ReadDatasetSchema(fs, dataset)
	if err != nil {
		log.Fatal(err)
	}
	return s
}
