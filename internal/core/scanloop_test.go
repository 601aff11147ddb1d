package core

import (
	"fmt"
	"runtime"
	"testing"

	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/race"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// The scan loop's kernel: the serve_burst query shape — lazy records of str0
// where int0 <= k, over the synthetic schema — run through the one batch loop
// as a solo scan, a one-member shared scan and an eight-member one. Planning
// happens once, outside the timed loop; what is timed is opening every split,
// draining it and reading str0 from each record a member takes.

const scanLoopRows = 8192

func scanLoopData(tb testing.TB) *hdfs.FileSystem {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadSynthetic(tb, fs, "/loop", scanLoopRows, scanLoopRows/2)
	return fs
}

// scanLoopConfs builds n members of the serve_burst shape, each a little
// wider than the one before.
func scanLoopConfs(n int) []*mapred.JobConf {
	confs := make([]*mapred.JobConf, n)
	for k := range confs {
		conf := ScanDataset("/loop").Columns("str0").Where(scan.Le("int0", int32(2500+100*k))).Lazy(true).Conf()
		confs[k] = &conf
	}
	return confs
}

// scanLoop returns a function that scans the dataset once — solo when
// members is 0, else as one shared scan of that many members — and returns
// the records delivered.
func scanLoop(tb testing.TB, fs *hdfs.FileSystem, members int) func() int {
	in := &InputFormat{}
	if members == 0 {
		conf := scanLoopConfs(1)[0]
		// Planned like the shared splits: judged by the scheduler tier, so
		// neither side repeats the file tier at open.
		splits, _, err := in.PlannedSplits(fs, conf)
		if err != nil {
			tb.Fatal(err)
		}
		return func() int {
			rows := 0
			for _, sp := range splits {
				rr, err := in.Open(fs, conf, sp, hdfs.AnyNode, nil)
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
					if _, err := v.(serde.Record).Get("str0"); err != nil {
						tb.Fatal(err)
					}
					rows++
				}
				rr.Close()
			}
			return rows
		}
	}
	confs := scanLoopConfs(members)
	splits, _, err := in.SharedSplits(fs, confs)
	if err != nil {
		tb.Fatal(err)
	}
	stats := make([]*sim.TaskStats, members)
	for i := range stats {
		stats[i] = &sim.TaskStats{}
	}
	var shared sim.TaskStats
	return func() int {
		rows := 0
		for _, sp := range splits {
			sr, err := in.OpenShared(fs, confs, sp.Split, sp.Members, hdfs.AnyNode, stats[:len(sp.Members)], &shared)
			if err != nil {
				tb.Fatal(err)
			}
			for {
				_, vals, _, ok, err := sr.Next()
				if err != nil {
					tb.Fatal(err)
				}
				if !ok {
					break
				}
				for _, v := range vals {
					if _, err := v.(serde.Record).Get("str0"); err != nil {
						tb.Fatal(err)
					}
				}
				rows += len(vals)
			}
			sr.Close()
		}
		return rows
	}
}

// BenchmarkScanLoop reports ns and allocations per dataset row scanned.
func BenchmarkScanLoop(b *testing.B) {
	fs := scanLoopData(b)
	for _, bc := range []struct {
		name    string
		members int
	}{{"solo", 0}, {"shared1", 1}, {"shared8", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			run := scanLoop(b, fs, bc.members)
			run() // warm the pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * scanLoopRows
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
		})
	}
}

// TestScanLoopAllocGuard: a one-member shared scan is the solo scan, so it
// allocates no more per row — the member replay, the demux and the shared
// accounting cost nothing when there is nobody to share with.
func TestScanLoopAllocGuard(t *testing.T) {
	fs := scanLoopData(t)
	solo, shared1 := scanLoop(t, fs, 0), scanLoop(t, fs, 1)
	if a, b := solo(), shared1(); a != b || a == 0 {
		t.Fatalf("solo scan delivered %d records, one-member shared scan %d", a, b)
	}
	soloAllocs := testing.AllocsPerRun(5, func() { solo() })
	sharedAllocs := testing.AllocsPerRun(5, func() { shared1() })
	race.AllocCeiling(t, fmt.Sprintf("a one-member shared scan of %d rows (the solo scan: %.1f)", scanLoopRows, soloAllocs),
		sharedAllocs, soloAllocs)
}
