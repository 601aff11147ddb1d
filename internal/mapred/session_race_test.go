package mapred_test

// Concurrent rounds on one session: the scan server (internal/serve) runs
// up to MaxBatches sealed batches at once, each a Session.RunBatch on the
// same long-lived session. Run under -race (CI's shared-scan smoke runs it
// by name), this test exercises the cache attachment, the shared scan and
// vector caches and the catalog from several batches in flight together.

import (
	"fmt"
	"sync"
	"testing"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

func TestSessionConcurrentRunBatch(t *testing.T) {
	const records = 200
	fs := hdfs.New(sim.SingleNode(), 7)
	schema := serde.RecordOf("R",
		serde.Field{Name: "t", Type: serde.Long()},
		serde.Field{Name: "s", Type: serde.String()})
	w, err := core.NewWriter(fs, "/d", schema, core.LoadOptions{SplitRecords: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		rec := serde.NewRecord(schema)
		if err := rec.Set("t", int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := rec.Set("s", fmt.Sprintf("s%03d", i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	job := func(hi int64) *mapred.Job {
		return core.ScanDataset("/d").
			Columns("s").
			Where(scan.Le("t", hi)).
			Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
	}

	// Each caller runs rounds of two overlapping jobs (a co-scheduled
	// group); every member must match its solo Run's logical accounting.
	const callers, rounds = 4, 6
	hi := func(round, j int) int64 { return int64(20 + 30*((round+j)%rounds)) }
	want := make([][8]int64, rounds)
	for j := range want {
		res, err := mapred.Run(fs, job(hi(j, 0)))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = logicalStats(res.Total)
	}

	session := mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: 1 << 20, VecCacheBytes: 1 << 20})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				br, err := session.RunBatch(job(hi(round, g)), job(hi(round, g+1)))
				if err != nil {
					errs <- err
					return
				}
				for j, res := range br.Results {
					k := (round + g + j) % rounds
					if got := logicalStats(res.Total); got != want[k] {
						errs <- fmt.Errorf("caller %d round %d job %d: logical stats %v, solo %v", g, round, j, got, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
