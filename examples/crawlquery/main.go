// Crawlquery runs the paper's motivating job (Figure 1): over a crawled
// document collection, find every distinct content-type reported by pages
// whose URL contains "ibm.com/jp" — using lazy record construction so the
// metadata map is deserialized only for the ~6% of records that match.
package main

import (
	"fmt"
	"log"
	"strings"

	"colmr"
)

func main() {
	fs := colmr.NewFileSystem(colmr.DefaultCluster(), 7)
	fs.SetPlacementPolicy(colmr.NewColumnPlacementPolicy())

	// Generate and load a slice of the intranet crawl (Figure 2's URLInfo
	// schema: url, srcUrl, fetchTime, inlink[], metadata, annotations,
	// content).
	crawl := colmr.NewCrawl(colmr.CrawlOptions{Seed: 7, ContentBytes: 2000})
	w, err := colmr.NewColumnWriter(fs, "/data/crawl", crawl.Schema(), colmr.LoadOptions{
		SplitRecords: 512,
		PerColumn: map[string]colmr.ColumnOptions{
			// The metadata column as a dictionary compressed skip list —
			// the paper's best-performing layout (CIF-DCSL).
			"metadata": {Layout: colmr.LayoutDCSL},
		},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	const n = 4096
	for i := int64(0); i < n; i++ {
		if err := w.Append(crawl.Record(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// The job of Figure 1, verbatim in Go: project url + metadata, lazy
	// records, filter on url, emit metadata["content-type"], reduce to
	// distinct values.
	conf := colmr.ScanDataset("/data/crawl").Columns("url", "metadata").Lazy(true).Conf()
	conf.OutputPath = "/out/content-types"
	conf.NumReducers = 4

	job := &colmr.Job{
		Conf:  conf,
		Input: &colmr.ColumnInputFormat{},
		Mapper: colmr.MapperFunc(func(key, value any, emit colmr.Emit) error {
			rec := value.(colmr.Record)
			url, err := rec.Get("url")
			if err != nil {
				return err
			}
			if !strings.Contains(url.(string), "ibm.com/jp") {
				return nil // metadata never deserialized for this record
			}
			md, err := rec.Get("metadata")
			if err != nil {
				return err
			}
			return emit(md.(map[string]any)["content-type"].(string), nil)
		}),
		Reducer: colmr.ReducerFunc(func(key any, values []any, emit colmr.Emit) error {
			return emit(key, nil) // distinct
		}),
		Output: colmr.TextOutput{},
	}

	res, err := colmr.RunJob(fs, job)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distinct content-types on ibm.com/jp pages: %d\n", res.OutputRecords)
	for p := 0; p < conf.NumReducers; p++ {
		data, err := fs.ReadFile(fmt.Sprintf("/out/content-types/part-%05d", p))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line != "" {
				fmt.Printf("  %s\n", strings.TrimSpace(line))
			}
		}
	}
	matched := int64(0)
	for i := int64(0); i < n; i++ {
		if crawl.Matches(i) {
			matched++
		}
	}
	colBytes := fs.TotalSize("/data/crawl/s0/metadata")
	fmt.Printf("\nlazy construction at work:\n")
	fmt.Printf("  records scanned:              %d\n", res.Total.RecordsProcessed)
	fmt.Printf("  records matching predicate:   %d (%.1f%%)\n", matched, 100*float64(matched)/float64(n))
	fmt.Printf("  metadata bytes deserialized:  %.1f KB (dictionary-decoded)\n",
		float64(res.Total.CPU.DictBytes)/1024)
	fmt.Printf("  one metadata column file is:  %.1f KB\n", float64(colBytes)/1024)
}
