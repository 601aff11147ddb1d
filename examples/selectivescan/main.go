// Selectivescan demonstrates the scan subsystem: predicate pushdown with
// zone-map statistics. The same selective aggregation runs twice over a
// skip-list CIF dataset — once the classic way (project the filter column,
// test it in the map function) and once with the predicate pushed into the
// storage layer (ScanDataset(...).Where) — and the work counters show where
// the order of magnitude goes: whole record groups pruned from min/max
// zone maps alone, filter columns deciding the rest, and the expensive
// map column materialized only for qualifying records.
package main

import (
	"fmt"
	"log"
	"sync"

	"colmr"
)

func main() {
	fs := colmr.NewFileSystem(colmr.SingleNode(), 7)
	fs.SetPlacementPolicy(colmr.NewColumnPlacementPolicy())

	// The Section 6.2 synthetic dataset: 6 strings, 6 ints, one map. Every
	// column file carries a zone-map stats footer (written by default).
	gen := colmr.NewSynthetic(7)
	w, err := colmr.NewColumnWriter(fs, "/data/syn", gen.Schema(), colmr.LoadOptions{
		SplitRecords: 10000,
		Default:      colmr.ColumnOptions{Layout: colmr.LayoutSkipList},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	const n = 20000
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// int0 is uniform over [1, 10000]: "int0 <= 50" selects ~0.5% of the
	// records. The same predicate drives both runs — built with the typed
	// builders here; `colmr.ParsePredicate("int0 <= 50")` is equivalent.
	pred := colmr.Le("int0", 50)

	// Map tasks run concurrently; mu guards each run's shared counters.
	var mu sync.Mutex
	sumMap := func(rec colmr.Record, sum *int64) error {
		m, err := rec.Get("map0")
		if err != nil {
			return err
		}
		for _, v := range m.(map[string]any) {
			*sum += int64(v.(int32))
		}
		return nil
	}

	// Classic scan-then-filter: int0 joins the projection and every record
	// reaches the map function.
	scanFilter := func() (int64, int64, colmr.TaskStats) {
		conf := colmr.ScanDataset("/data/syn").Columns("int0", "map0").Lazy(true).Conf()
		var sum, matches int64
		job := &colmr.Job{
			Conf:  conf,
			Input: &colmr.ColumnInputFormat{},
			Mapper: colmr.MapperFunc(func(_, value any, emit colmr.Emit) error {
				rec := value.(colmr.Record)
				v, err := rec.Get("int0")
				if err != nil {
					return err
				}
				if v.(int32) > 50 {
					return nil
				}
				mu.Lock()
				defer mu.Unlock()
				matches++
				return sumMap(rec, &sum)
			}),
			Output: colmr.NullOutput{},
		}
		res, err := colmr.RunJob(fs, job)
		if err != nil {
			log.Fatal(err)
		}
		return sum, matches, res.Total
	}

	// Pushdown: the predicate travels below record construction; the map
	// function sees only qualifying records and never mentions int0.
	pushdown := func() (int64, int64, colmr.TaskStats) {
		conf := colmr.ScanDataset("/data/syn").Columns("map0").Lazy(true).Where(pred).Conf()
		var sum, matches int64
		job := &colmr.Job{
			Conf:  conf,
			Input: &colmr.ColumnInputFormat{},
			Mapper: colmr.MapperFunc(func(_, value any, emit colmr.Emit) error {
				mu.Lock()
				defer mu.Unlock()
				matches++
				return sumMap(value.(colmr.Record), &sum)
			}),
			Output: colmr.NullOutput{},
		}
		res, err := colmr.RunJob(fs, job)
		if err != nil {
			log.Fatal(err)
		}
		return sum, matches, res.Total
	}

	fSum, fMatches, fStats := scanFilter()
	pSum, pMatches, pStats := pushdown()

	fmt.Printf("scan-then-filter: %d matches, aggregate %d\n", fMatches, fSum)
	fmt.Printf("pushdown:         %d matches, aggregate %d\n\n", pMatches, pSum)
	if fSum != pSum || fMatches != pMatches {
		log.Fatal("pushdown and scan-then-filter disagree")
	}

	fmt.Printf("%-40s %14s %14s\n", "", "scan+filter", "pushdown")
	fmt.Printf("%-40s %14d %14d\n", "records pruned via zone maps", fStats.RecordsPruned, pStats.RecordsPruned)
	fmt.Printf("%-40s %14d %14d\n", "records rejected by evaluation", fStats.RecordsFiltered, pStats.RecordsFiltered)
	fmt.Printf("%-40s %14d %14d\n", "int values deserialized (bytes)", fStats.CPU.IntBytes, pStats.CPU.IntBytes)
	fmt.Printf("%-40s %14d %14d\n", "map-typed bytes deserialized", fStats.CPU.MapBytes, pStats.CPU.MapBytes)
	fmt.Printf("%-40s %14d %14d\n", "values materialized", fStats.CPU.ValuesMaterialized, pStats.CPU.ValuesMaterialized)
	fmt.Printf("%-40s %14d %14d\n", "bytes skipped via skip lists", fStats.CPU.SkippedBytes, pStats.CPU.SkippedBytes)
	fmt.Printf("\nzone maps proved %d of %d records irrelevant without reading any column value\n",
		pStats.RecordsPruned, int64(n))
}
