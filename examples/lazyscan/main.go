// Lazyscan contrasts eager and lazy record construction (paper Section 5)
// on the same selective query, printing the work counters that explain the
// difference: with lazy records and a skip-list column layout, the map
// column is deserialized only where the predicate matched.
package main

import (
	"fmt"
	"hash/fnv"
	"log"
	"sync"

	"colmr"
)

func main() {
	fs := colmr.NewFileSystem(colmr.SingleNode(), 3)
	fs.SetPlacementPolicy(colmr.NewColumnPlacementPolicy())

	// The Section 6.2 synthetic dataset: 6 strings, 6 ints, one map.
	gen := colmr.NewSynthetic(3)
	w, err := colmr.NewColumnWriter(fs, "/data/syn", gen.Schema(), colmr.LoadOptions{
		SplitRecords: 4000,
		PerColumn: map[string]colmr.ColumnOptions{
			"map0": {Layout: colmr.LayoutSkipList},
		},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	const n = 8000
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// A ~5%-selective predicate on the string column; matching records
	// aggregate their map values.
	match := func(s string) bool {
		h := fnv.New32a()
		h.Write([]byte(s))
		return h.Sum32()%100 < 5
	}

	run := func(lazy bool) colmr.TaskStats {
		conf := colmr.ScanDataset("/data/syn").Columns("str0", "map0").Lazy(lazy).Conf()
		// Map tasks run concurrently; the mutex guards the shared sum.
		var mu sync.Mutex
		var sum int64
		job := &colmr.Job{
			Conf:  conf,
			Input: &colmr.ColumnInputFormat{},
			Mapper: colmr.MapperFunc(func(key, value any, emit colmr.Emit) error {
				rec := value.(colmr.Record)
				s, err := rec.Get("str0")
				if err != nil {
					return err
				}
				if !match(s.(string)) {
					return nil
				}
				m, err := rec.Get("map0")
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				for _, v := range m.(map[string]any) {
					sum += int64(v.(int32))
				}
				return nil
			}),
			Output: colmr.NullOutput{},
		}
		res, err := colmr.RunJob(fs, job)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  aggregate = %d\n", sum)
		return res.Total
	}

	fmt.Println("eager record construction:")
	eager := run(false)
	fmt.Println("lazy record construction:")
	lazy := run(true)

	fmt.Printf("\n%-34s %12s %12s\n", "", "eager", "lazy")
	fmt.Printf("%-34s %12d %12d\n", "map-typed bytes deserialized", eager.CPU.MapBytes, lazy.CPU.MapBytes)
	fmt.Printf("%-34s %12d %12d\n", "bytes skipped via skip lists", eager.CPU.SkippedBytes, lazy.CPU.SkippedBytes)
	fmt.Printf("%-34s %12d %12d\n", "values materialized", eager.CPU.ValuesMaterialized, lazy.CPU.ValuesMaterialized)
	fmt.Printf("%-34s %12d %12d\n", "logical bytes read", eager.IO.LogicalBytes, lazy.IO.LogicalBytes)
	fmt.Printf("\nthe aggregates match, but lazy construction deserialized %.1f%% of the map column\n",
		100*float64(lazy.CPU.MapBytes)/float64(eager.CPU.MapBytes))
}
