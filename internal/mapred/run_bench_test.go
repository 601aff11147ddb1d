package mapred_test

import (
	"fmt"
	"runtime"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/race"
	"colmr/internal/scan"
	"colmr/internal/sim"
)

// Run's cost per map task: what the engine adds around the reader — plan,
// schedule, the worker pool, the task loop, the result — over 16 CIF
// split-directories (twice: once with s a DCSL column cycling through seven
// tags) and an RCFile file of four blocks, measured as allocations per map
// task so a job of any width reads on one scale.

const runBenchRows = 4096

func runBenchData(tb testing.TB) *hdfs.FileSystem {
	tb.Helper()
	cfg := sim.DefaultCluster()
	cfg.Nodes = 4
	cfg.BlockSize = 1 << 13
	fs := hdfs.New(cfg, 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	sl := colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20}
	dcsl := sl
	dcsl.Layout = colfile.DCSL
	for _, ds := range []struct {
		path string
		s    colfile.Options
		tags bool
	}{{"/run/cif", sl, false}, {"/run/dcsl", dcsl, true}} {
		w, err := core.NewWriter(fs, ds.path, pinSchema, core.LoadOptions{
			Default:      sl,
			PerColumn:    map[string]colfile.Options{"s": ds.s},
			SplitRecords: runBenchRows / 16,
		}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for i := int64(0); i < runBenchRows; i++ {
			rec := pinRecord(i, runBenchRows)
			if ds.tags {
				rec.SetAt(2, fmt.Sprintf("t%d", i%7))
			}
			if err := w.Append(rec); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	f, err := fs.Create("/run/data.rc", hdfs.AnyNode)
	if err != nil {
		tb.Fatal(err)
	}
	rw, err := rcfile.NewWriter(f, "/run/data.rc", pinSchema, rcfile.Options{Codec: "zlib", RowGroupBytes: 4 << 10}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < runBenchRows; i++ {
		if err := rw.Append(pinRecord(i, runBenchRows)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return fs
}

// runBenchCases are the jobs, one per way a map task reads: eager and lazy
// CIF records, an in-scan aggregate, one whose predicate compares DCSL
// dictionary ids (agg_pushdown's cyclic count: no vector cache, and every
// 20-row zone-map group holds the tag, so each task runs 13 batches of one
// group), and a row-group format's records.
func runBenchCases(tb testing.TB) []struct {
	name string
	job  func() *mapred.Job
} {
	agg, err := scan.ParseAggregate("count, sum(x) group by y")
	if err != nil {
		tb.Fatal(err)
	}
	count, err := scan.ParseAggregate("count")
	if err != nil {
		tb.Fatal(err)
	}
	return []struct {
		name string
		job  func() *mapred.Job
	}{
		{"cif_eager", func() *mapred.Job {
			return core.ScanDataset("/run/cif").Columns("x", "s").Job(pinMapper)
		}},
		{"cif_lazy", func() *mapred.Job {
			return core.ScanDataset("/run/cif").Columns("x", "s").Where(scan.Eq("y", 3)).Lazy(true).Job(pinMapper)
		}},
		{"cif_agg", func() *mapred.Job {
			return core.ScanDataset("/run/cif").Aggregate(agg).AggJob()
		}},
		{"cif_agg_ids", func() *mapred.Job {
			return core.ScanDataset("/run/dcsl").Where(scan.Eq("s", "t3")).Aggregate(count).AggJob()
		}},
		{"rcfile", func() *mapred.Job {
			j := core.ScanDataset("/run/data.rc").Columns("x", "s").Job(pinMapper)
			j.Input = &rcfile.InputFormat{}
			return j
		}},
	}
}

func runOnce(tb testing.TB, fs *hdfs.FileSystem, job *mapred.Job) int {
	res, err := mapred.Run(fs, job)
	if err != nil {
		tb.Fatal(err)
	}
	return len(res.MapTasks)
}

func BenchmarkRun(b *testing.B) {
	fs := runBenchData(b)
	for _, tc := range runBenchCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			job := tc.job()
			tasks := runOnce(b, fs, job)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runOnce(b, fs, job)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * tasks)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/task")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/task")
		})
	}
}

// TestRunAllocCeiling holds Run to the allocations per map task it makes
// planning through the filesystem's one catalog. Each pool goroutine is one
// allocation and there is one per CPU, up to eight, so the ceilings are
// those counts with eight goroutines, rounded up.
func TestRunAllocCeiling(t *testing.T) {
	ceiling := map[string]float64{"cif_eager": 326, "cif_lazy": 130, "cif_agg": 83, "cif_agg_ids": 102, "rcfile": 3307}
	fs := runBenchData(t)
	for _, tc := range runBenchCases(t) {
		job := tc.job()
		res, err := mapred.Run(fs, job)
		if err != nil {
			t.Fatal(err)
		}
		tasks := len(res.MapTasks)
		if tc.name == "cif_agg_ids" && (res.Total.DictIdCompares == 0 || res.Total.VecBatches < int64(13*tasks)) {
			t.Fatalf("%s: %d dictionary-id compares over %d batches of %d tasks: not the id path over many batches", tc.name, res.Total.DictIdCompares, res.Total.VecBatches, tasks)
		}
		allocs := testing.AllocsPerRun(20, func() { runOnce(t, fs, job) })
		t.Logf("%s: %d tasks, %.2f allocs/task", tc.name, tasks, allocs/float64(tasks))
		race.AllocCeiling(t, "Run of "+tc.name+", per map task,", allocs/float64(tasks), ceiling[tc.name])
	}
}
