package mapred_test

// Session tests: the long-lived engine with cross-batch scan caching.
//
// The contract under test is the one the API redesign promises: caching is
// pure accounting. With CacheBytes 0 a Session round is mapred.RunBatch,
// byte for byte; with any budget, outputs and logical counters are identical to
// cache-off runs and only the local/remote byte charges move (into
// CacheHits/BytesFromCache). The property test drives random schemas,
// predicates, and multi-round batch sequences through three sessions —
// cache off, ample cache, starved cache (eviction on every round) — and a
// solo reference run.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// TestSessionCacheOffIsEngine: with CacheBytes 0, a session round must be
// deep-equal to mapred.RunBatch — every counter of every task, not just the
// headline bytes.
func TestSessionCacheOffIsEngine(t *testing.T) {
	build := func() []*mapred.Job {
		return []*mapred.Job{
			countJob("/d", scan.Le("x", 250)),
			countJob("/d", scan.Le("x", 300)),
		}
	}
	fs := hdfs.New(sim.SingleNode(), 1)
	loadBatchDataset(t, fs, "/d", 800, 8)

	engRes, err := mapred.RunBatch(fs, build()...)
	if err != nil {
		t.Fatal(err)
	}
	sess := mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: 0})
	sessRes, err := sess.RunBatch(build()...)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(engRes, sessRes) {
		t.Errorf("CacheBytes 0 session diverged from RunBatch:\nRunBatch: %+v\nsession:  %+v", engRes, sessRes)
	}
	if w := sessRes.Work(); w.CacheHits != 0 || w.BytesFromCache != 0 {
		t.Errorf("cache counters fired with caching disabled: %d hits, %d bytes", w.CacheHits, w.BytesFromCache)
	}
}

// TestSessionCacheReuseAcrossBatches: the core round promise —
// a second round over the same dataset reuses the first round's reads, with
// identical results.
func TestSessionCacheReuseAcrossBatches(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadBatchDataset(t, fs, "/d", 800, 8)
	sess := mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: 64 << 20})

	var prev *mapred.Result
	for round := 0; round < 3; round++ {
		br, err := sess.RunBatch(countJob("/d", scan.Le("x", 250)))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		res := br.Results[0]
		w := br.Work()
		hits, fromCache := w.CacheHits, w.BytesFromCache
		if round == 0 {
			if hits != 0 {
				t.Errorf("round 0 hit an empty cache %d times", hits)
			}
		} else {
			if hits == 0 || fromCache == 0 {
				t.Errorf("round %d: no cache reuse (%d hits, %d bytes)", round, hits, fromCache)
			}
			if got := res.Total.IO.TotalChargedBytes(); got != 0 {
				t.Errorf("round %d: charged %d bytes with every region hot", round, got)
			}
			if res.Total.RecordsProcessed != prev.Total.RecordsProcessed ||
				res.Total.RecordsPruned != prev.Total.RecordsPruned ||
				res.Total.RecordsFiltered != prev.Total.RecordsFiltered {
				t.Errorf("round %d: logical counters drifted: %+v vs %+v", round, res.Total, prev.Total)
			}
		}
		prev = res
	}
	if bytes, regions := sess.CacheUsage(); bytes == 0 || regions == 0 {
		t.Error("cache empty after three warm rounds")
	}
}

// TestSessionGenerationInvalidation: mutating the dataset must never serve
// stale bytes. AddColumn writes new files (nothing to invalidate — the new
// column simply isn't cached), and a full reload under the same paths gets
// fresh generations that miss the old entries.
func TestSessionGenerationInvalidation(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	schema := loadBatchDataset(t, fs, "/d", 400, 4)
	_ = schema
	sess := mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: 64 << 20})

	// Warm the cache on the base columns.
	if _, err := sess.Run(countJob("/d", scan.Le("x", 500))); err != nil {
		t.Fatal(err)
	}

	// Evolve the schema: x2 = 2*x, one new file per split-directory.
	err := core.AddColumn(fs, "/d", "x2", serde.Long(), colfile.Options{Layout: colfile.SkipList},
		[]string{"x"}, func(rec serde.Record) (any, error) {
			x, err := rec.Get("x")
			if err != nil {
				return nil, err
			}
			return x.(int64) * 2, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}

	sumX2 := func(run func(*mapred.Job) (*mapred.Result, error)) int64 {
		var sum atomic.Int64 // map tasks run in parallel
		job := core.ScanDataset("/d").Columns("x2").Where(scan.Le("x", 500)).
			Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
				x2, err := v.(serde.Record).Get("x2")
				if err != nil {
					return err
				}
				sum.Add(x2.(int64))
				return nil
			}))
		if _, err := run(job); err != nil {
			t.Fatal(err)
		}
		return sum.Load()
	}
	want := sumX2(func(j *mapred.Job) (*mapred.Result, error) { return mapred.Run(fs, j) })
	if got := sumX2(sess.Run); got != want {
		t.Errorf("warm session sum(x2) = %d after AddColumn, cacheless run %d", got, want)
	}

	// Rebuild the dataset in place with different contents: every x doubled.
	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	reload := serde.RecordOf("B",
		serde.Field{Name: "x", Type: serde.Long()},
		serde.Field{Name: "y", Type: serde.Int()},
		serde.Field{Name: "s", Type: serde.String()})
	w, err := core.NewWriter(fs, "/d", reload, core.LoadOptions{SplitRecords: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 400; i++ {
		rec := serde.NewRecord(reload)
		rec.SetAt(0, 2*(i*1000/400))
		rec.SetAt(1, int32(i%10))
		rec.SetAt(2, fmt.Sprintf("s%03d", i%50))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	count := func(run func(*mapred.Job) (*mapred.Result, error)) int64 {
		job := countJob("/d", scan.Le("x", 500))
		res, err := run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.RecordsProcessed
	}
	want2 := count(func(j *mapred.Job) (*mapred.Result, error) { return mapred.Run(fs, j) })
	if got := count(sess.Run); got != want2 {
		t.Errorf("warm session counted %d records after reload, cacheless run %d — stale cache", got, want2)
	}
}

// TestSessionCacheReuseEquivalenceProperty is the redesign's property test:
// random schemas, predicates, and multi-round batch sequences must produce
// byte-identical outputs and solo-equal logical counters whether the
// session caches nothing, everything, or thrashes a starved cache. The
// test runs three rounds; the benchmark of the same name runs eight.
func TestSessionCacheReuseEquivalenceProperty(t *testing.T) {
	t.Parallel()
	checkSessionCacheReuseEquivalenceProperty(t, 3)
}

func BenchmarkSessionCacheReuseEquivalenceProperty(b *testing.B) {
	for range b.N {
		checkSessionCacheReuseEquivalenceProperty(b, 8)
	}
}

func checkSessionCacheReuseEquivalenceProperty(t testing.TB, rounds int) {
	records := 240
	rng := rand.New(rand.NewSource(20120530))
	var totalHits int64
	for round := 0; round < rounds; round++ {
		schema := bpSchema(rng)
		opts := bpLayouts[round%len(bpLayouts)]
		opts.SplitRecords = int64(20 + rng.Intn(100))
		fs := hdfs.New(sim.SingleNode(), int64(round))
		w, err := core.NewWriter(fs, "/d", schema, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			rec := serde.NewRecord(schema)
			for _, f := range schema.Fields {
				if f.Name == "t" {
					err = rec.Set("t", int64(i)*1000/int64(records))
				} else {
					err = rec.Set(f.Name, bpValue(rng, f.Type))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		// One session per caching mode; each replays the same sequence of
		// batches (jobs regenerated from the same seeds, outputs separated
		// per mode).
		modes := []struct {
			name  string
			bytes int64
		}{
			{"off", 0},
			{"ample", 64 << 20},
			// A few regions' worth: admissions evict on every round.
			{"starved", 512 << 10},
		}
		sessions := make([]*mapred.Session, len(modes))
		for m, mode := range modes {
			// The vector cache rides the same budget, so warm vectorized
			// rounds (batches served from resident vectors) are checked
			// against solo runs too.
			sessions[m] = mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: mode.bytes, VecCacheBytes: mode.bytes})
		}

		batches := 2 + rng.Intn(2)
		for b := 0; b < batches; b++ {
			njobs := 1 + rng.Intn(3)
			seeds := make([]int64, njobs)
			for j := range seeds {
				seeds[j] = rng.Int63()
			}
			makeJob := func(seed int64, out string) *mapred.Job {
				return bpJob(rand.New(rand.NewSource(seed)), schema, "/d", out)
			}

			// Solo reference: the accounting every mode must reproduce.
			soloRes := make([]*mapred.Result, njobs)
			for j := range seeds {
				job := makeJob(seeds[j], fmt.Sprintf("/solo/%d/%d", b, j))
				if soloRes[j], err = mapred.Run(fs, job); err != nil {
					t.Fatalf("round %d batch %d job %d solo: %v", round, b, j, err)
				}
			}

			for m, mode := range modes {
				jobs := make([]*mapred.Job, njobs)
				for j := range seeds {
					jobs[j] = makeJob(seeds[j], fmt.Sprintf("/%s/%d/%d", mode.name, b, j))
				}
				br, err := sessions[m].RunBatch(jobs...)
				if err != nil {
					t.Fatalf("round %d batch %d mode %s: %v", round, b, mode.name, err)
				}
				hits := br.Work().CacheHits
				if mode.bytes == 0 && hits != 0 {
					t.Fatalf("round %d batch %d: cache-off session reported %d hits", round, b, hits)
				}
				if mode.name == "ample" {
					totalHits += hits
				}
				for j, res := range br.Results {
					ctx := fmt.Sprintf("round %d batch %d mode %s job %d", round, b, mode.name, j)
					parts := jobs[j].Conf.NumReducers
					if jobs[j].Reducer == nil || parts < 1 {
						parts = 1
					}
					soloOut := readParts(t, fs, fmt.Sprintf("/solo/%d/%d", b, j), parts)
					modeOut := readParts(t, fs, jobs[j].Conf.OutputPath, parts)
					for p := range soloOut {
						if soloOut[p] != modeOut[p] {
							t.Fatalf("%s: partition %d output differs:\nsolo: %q\nmode: %q", ctx, p, soloOut[p], modeOut[p])
						}
					}
					if got, want := logicalStats(res.Total), logicalStats(soloRes[j].Total); got != want {
						t.Fatalf("%s: logical stats differ: session %v, solo %v", ctx, got, want)
					}
				}
			}
		}
	}
	if totalHits == 0 {
		t.Error("no cache hit across all rounds — cross-batch caching never fired")
	}
}
