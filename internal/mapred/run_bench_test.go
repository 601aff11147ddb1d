package mapred_test

import (
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
// split-directories and an RCFile file of four blocks, measured as
// allocations per map task so a job of any width reads on one scale.

const runBenchRows = 4096

func runBenchData(tb testing.TB) *hdfs.FileSystem {
	tb.Helper()
	cfg := sim.DefaultCluster()
	cfg.Nodes = 4
	cfg.BlockSize = 1 << 13
	fs := hdfs.New(cfg, 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	w, err := core.NewWriter(fs, "/run/cif", pinSchema, core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20},
		SplitRecords: runBenchRows / 16,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < runBenchRows; i++ {
		if err := w.Append(pinRecord(i, runBenchRows)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
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
// CIF records, an in-scan aggregate, and a row-group format's records.
func runBenchCases(tb testing.TB) []struct {
	name string
	job  func() *mapred.Job
} {
	agg, err := scan.ParseAggregate("count, sum(x) group by y")
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
	ceiling := map[string]float64{"cif_eager": 335, "cif_lazy": 253, "cif_agg": 156, "rcfile": 3307}
	fs := runBenchData(t)
	for _, tc := range runBenchCases(t) {
		job := tc.job()
		tasks := runOnce(t, fs, job)
		allocs := testing.AllocsPerRun(20, func() { runOnce(t, fs, job) })
		t.Logf("%s: %d tasks, %.2f allocs/task", tc.name, tasks, allocs/float64(tasks))
		race.AllocCeiling(t, "Run of "+tc.name+", per map task,", allocs/float64(tasks), ceiling[tc.name])
	}
}
