package serve_test

// Property test for admission invariance: the scan server's sharing window
// re-batches whatever arrives, so the shared-scan equivalence property must
// survive the jump from co-submission (mapred.RunBatch) to admission-time
// batching. For random schemas, datasets, predicates, tenants, arrival
// schedules, window sizes, quotas, and worker-pool widths, every served
// query's output must be byte-identical to its solo mapred.Run, with
// solo-equal logical counters — and the per-tenant attribution must sum
// exactly to the server's totals.
//
// ManualClock makes each round a discrete-event replay: admission is a pure
// function of the arrival sequence, so a failure reproduces from the seed.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/serve"
	"colmr/internal/sim"
)

var (
	spPrefixes = []string{"alpha/", "beta/", "gamma/", "delta/"}
	spKeys     = []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	spTenants  = []string{"acme", "blue", "crux"}
)

// spSchema mirrors the shared-scan property test's generator: random typed
// columns plus a clustered long "t" so elision tiers have real work.
func spSchema(rng *rand.Rand) *serde.Schema {
	kinds := []func() *serde.Schema{
		serde.Int, serde.Long, serde.Double, serde.String, serde.Bool,
	}
	n := 2 + rng.Intn(3)
	fields := make([]serde.Field, 0, n+2)
	for i := 0; i < n; i++ {
		fields = append(fields, serde.Field{Name: fmt.Sprintf("c%d", i), Type: kinds[rng.Intn(len(kinds))]()})
	}
	fields = append(fields,
		serde.Field{Name: "m", Type: serde.MapOf(serde.String())},
		serde.Field{Name: "t", Type: serde.Long()})
	return serde.RecordOf("Serve", fields...)
}

func spValue(rng *rand.Rand, s *serde.Schema) any {
	switch s.Kind {
	case serde.KindBool:
		return rng.Intn(2) == 0
	case serde.KindInt:
		return int32(rng.Intn(40))
	case serde.KindLong, serde.KindTime:
		return int64(rng.Intn(1000))
	case serde.KindDouble:
		return float64(rng.Intn(100)) / 4
	case serde.KindString:
		return spPrefixes[rng.Intn(len(spPrefixes))] + string(rune('a'+rng.Intn(26)))
	case serde.KindMap:
		n := rng.Intn(4)
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			m[spKeys[rng.Intn(len(spKeys))]] = spValue(rng, s.Elem)
		}
		return m
	}
	panic("unhandled kind")
}

func spLeaf(rng *rand.Rand, schema *serde.Schema) scan.Predicate {
	f := schema.Fields[rng.Intn(len(schema.Fields))]
	ops := []scan.Op{scan.OpEq, scan.OpNe, scan.OpLt, scan.OpLe, scan.OpGt, scan.OpGe}
	op := ops[rng.Intn(len(ops))]
	switch f.Type.Kind {
	case serde.KindBool:
		return scan.Cmp(f.Name, op, rng.Intn(2) == 0)
	case serde.KindInt:
		return scan.Cmp(f.Name, op, rng.Intn(40))
	case serde.KindLong, serde.KindTime:
		if rng.Intn(2) == 0 {
			lo := rng.Intn(1000)
			return scan.Between(f.Name, lo, lo+rng.Intn(400))
		}
		return scan.Cmp(f.Name, op, int64(rng.Intn(1000)))
	case serde.KindDouble:
		return scan.Cmp(f.Name, op, float64(rng.Intn(100))/4)
	case serde.KindString:
		if rng.Intn(2) == 0 {
			return scan.HasPrefix(f.Name, spPrefixes[rng.Intn(len(spPrefixes))])
		}
		return scan.Cmp(f.Name, op, spPrefixes[rng.Intn(len(spPrefixes))]+string(rune('a'+rng.Intn(26))))
	case serde.KindMap:
		return scan.KeyExists(f.Name, spKeys[rng.Intn(len(spKeys))])
	}
	return scan.NotNull(f.Name)
}

func spPredicate(rng *rand.Rand, schema *serde.Schema, depth int) scan.Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		return spLeaf(rng, schema)
	}
	kids := make([]scan.Predicate, 2)
	for i := range kids {
		kids[i] = spPredicate(rng, schema, depth-1)
	}
	switch rng.Intn(3) {
	case 0:
		return scan.And(kids...)
	case 1:
		return scan.Or(kids...)
	default:
		return scan.Not(kids[0])
	}
}

var spLayouts = []core.LoadOptions{
	{Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 20}},
	{Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20}},
	{Default: colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 2 << 10}},
}

// spJob builds one random query over the dataset: random predicate (possibly
// none), projection, materialization mode, and reduce shape — the same job
// space the shared-scan property test explores, now arriving asynchronously.
func spJob(rng *rand.Rand, schema *serde.Schema, dataset, out string) *mapred.Job {
	names := schema.FieldNames()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	proj := append([]string(nil), names[:1+rng.Intn(len(names))]...)

	spec := &scan.Spec{Columns: proj, Lazy: rng.Intn(2) == 0}
	if rng.Intn(5) > 0 {
		spec.Predicate = spPredicate(rng, schema, 2)
	}
	spec.NoElide = rng.Intn(4) == 0
	spec.NoBloom = rng.Intn(4) == 0
	spec.NoVec = rng.Intn(3) == 0
	conf := mapred.JobConf{InputPaths: []string{dataset}, OutputPath: out, Scan: spec}

	job := &mapred.Job{
		Conf:  conf,
		Input: &core.InputFormat{},
		Mapper: mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
			rec := v.(serde.Record)
			var sb strings.Builder
			for _, col := range proj {
				cv, err := rec.Get(col)
				if err != nil {
					return err
				}
				fmt.Fprintf(&sb, "%s=%v;", col, cv)
			}
			return emit(sb.String(), int64(1))
		}),
		Output: mapred.TextOutput{},
	}
	if rng.Intn(2) == 0 {
		sum := mapred.ReducerFunc(func(key any, values []any, emit mapred.Emit) error {
			var n int64
			for _, v := range values {
				n += v.(int64)
			}
			return emit(key, n)
		})
		job.Reducer = sum
		job.Conf.NumReducers = 1 + rng.Intn(3)
		if rng.Intn(2) == 0 {
			job.Combiner = sum
		}
	}
	return job
}

// spLogicalStats projects the counters that must be identical between solo
// and served execution; physical I/O is charged to the batch instead.
func spLogicalStats(st sim.TaskStats) [8]int64 {
	return [8]int64{
		st.RecordsProcessed, st.RecordsPruned, st.RecordsFiltered,
		st.GroupsPruned, st.BloomPruned, st.SplitsPruned, st.OutputRecords, st.OutputBytes,
	}
}

func spReadParts(t *testing.T, fs *hdfs.FileSystem, path string, parts int) []string {
	t.Helper()
	out := make([]string, parts)
	for p := 0; p < parts; p++ {
		name := fmt.Sprintf("%s/part-%05d", path, p)
		r, err := fs.Open(name, hdfs.AnyNode)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if r.Size() > 0 {
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatalf("reading %s: %v", name, err)
			}
			out[p] = string(data)
		}
		r.Close()
	}
	return out
}

func TestServeAdmissionInvarianceProperty(t *testing.T) {
	const rounds, records = 8, 200
	rng := rand.New(rand.NewSource(20110906))
	windows := []float64{0, 0.05, 0.25}
	var sharedBatches, sharedReads, sharedQueries int64

	for round := 0; round < rounds; round++ {
		schema := spSchema(rng)
		opts := spLayouts[round%len(spLayouts)]
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
					err = rec.Set(f.Name, spValue(rng, f.Type))
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

		window := windows[round%len(windows)]
		clock := &serve.ManualClock{}
		srvOpts := serve.Options{
			Window:     window,
			MaxBatches: 1 + rng.Intn(3),
			Clock:      clock,
		}
		if rng.Intn(2) == 0 {
			srvOpts.TenantQuota = 1 + rng.Intn(2)
		}
		if rng.Intn(2) == 0 {
			srvOpts.CacheBytes = 1 << 20
		}
		srv := serve.New(fs, srvOpts)

		// Build each query twice from one seed: a solo copy run alone up
		// front, and a served copy enqueued on a random arrival schedule —
		// mostly inside the window so batches actually form, with occasional
		// long gaps that force a window to expire between arrivals.
		nq := 3 + rng.Intn(4)
		soloJobs := make([]*mapred.Job, nq)
		servedJobs := make([]*mapred.Job, nq)
		tenants := make([]string, nq)
		for j := 0; j < nq; j++ {
			seed := rng.Int63()
			jr := rand.New(rand.NewSource(seed))
			soloJobs[j] = spJob(jr, schema, "/d", fmt.Sprintf("/solo/%d/%d", round, j))
			jr = rand.New(rand.NewSource(seed))
			servedJobs[j] = spJob(jr, schema, "/d", fmt.Sprintf("/served/%d/%d", round, j))
			tenants[j] = spTenants[rng.Intn(len(spTenants))]
		}

		soloRes := make([]*mapred.Result, nq)
		for j, job := range soloJobs {
			if soloRes[j], err = mapred.Run(fs, job); err != nil {
				t.Fatalf("round %d query %d solo: %v", round, j, err)
			}
		}

		now := 0.0
		tickets := make([]*serve.Ticket, nq)
		for j, job := range servedJobs {
			if j > 0 {
				if window > 0 && rng.Intn(4) == 0 {
					now += window * 1.5 // expire the forming window
				} else {
					now += window * float64(rng.Intn(3)) / 8
				}
				clock.Set(now)
			}
			if tickets[j], err = srv.Enqueue(tenants[j], job); err != nil {
				t.Fatalf("round %d query %d enqueue: %v", round, j, err)
			}
		}
		srv.Drain()

		for j, ticket := range tickets {
			pred := "none"
			if p := soloJobs[j].Conf.Scan.Predicate; p != nil {
				pred = p.String()
			}
			ctx := fmt.Sprintf("round %d query %d tenant %s window %g (pred %q)",
				round, j, tenants[j], window, pred)
			res, err := ticket.Wait()
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			solo := soloRes[j]
			parts := soloJobs[j].Conf.NumReducers
			if soloJobs[j].Reducer == nil || parts < 1 {
				parts = 1
			}
			soloOut := spReadParts(t, fs, soloJobs[j].Conf.OutputPath, parts)
			servedOut := spReadParts(t, fs, servedJobs[j].Conf.OutputPath, parts)
			for p := range soloOut {
				if soloOut[p] != servedOut[p] {
					t.Fatalf("%s: partition %d output differs:\nsolo:   %q\nserved: %q", ctx, p, soloOut[p], servedOut[p])
				}
			}
			if got, want := spLogicalStats(res.Total), spLogicalStats(solo.Total); got != want {
				t.Fatalf("%s: logical stats differ: served %v, solo %v", ctx, got, want)
			}
			if res.OutputRecords != solo.OutputRecords || res.ReduceGroups != solo.ReduceGroups {
				t.Fatalf("%s: reduce accounting differs: served %d/%d, solo %d/%d",
					ctx, res.OutputRecords, res.ReduceGroups, solo.OutputRecords, solo.ReduceGroups)
			}

			rep := ticket.Report()
			if rep.Tenant != tenants[j] || rep.BatchQueries < 1 {
				t.Fatalf("%s: bad report %+v", ctx, rep)
			}
			if window == 0 && rep.BatchQueries != 1 {
				t.Fatalf("%s: window 0 batched %d queries", ctx, rep.BatchQueries)
			}
			if rep.SealAt < rep.ArriveAt {
				t.Fatalf("%s: sealed at %g before arrival at %g", ctx, rep.SealAt, rep.ArriveAt)
			}
			if rep.Matched != solo.Total.RecordsProcessed {
				t.Fatalf("%s: report matched %d, solo %d", ctx, rep.Matched, solo.Total.RecordsProcessed)
			}
			if rep.BatchQueries > 1 {
				sharedQueries++
			}
		}

		// Attribution exactness: tenant rollups sum to the server totals.
		st := srv.Stats()
		if st.Queries != int64(nq) || st.Completed != int64(nq) || st.Failed != 0 {
			t.Fatalf("round %d: queries %d completed %d failed %d, want %d/%d/0",
				round, st.Queries, st.Completed, st.Failed, nq, nq)
		}
		if st.Queued != 0 || st.Forming != 0 || st.WaitingBatches != 0 || st.RunningBatches != 0 {
			t.Fatalf("round %d: drained server not idle: %+v", round, st)
		}
		if st.Wait.Count != nq || st.Latency.Count != nq {
			t.Fatalf("round %d: latency covers %d/%d queries, want %d", round, st.Wait.Count, st.Latency.Count, nq)
		}
		var sums struct{ q, m, cb, ch, bfc, sr, bs int64 }
		for _, ten := range st.Tenants {
			sums.q += ten.Queries
			sums.m += ten.Matched
			sums.cb += ten.ChargedBytes
			sums.ch += ten.CacheHits
			sums.bfc += ten.BytesFromCache
			sums.sr += ten.SharedReads
			sums.bs += ten.BytesSaved
		}
		if sums.q != st.Completed || sums.m != st.RecordsMatched ||
			sums.cb != st.ChargedBytes || sums.ch != st.CacheHits ||
			sums.bfc != st.BytesFromCache || sums.sr != st.SharedReads ||
			sums.bs != st.BytesSaved {
			t.Fatalf("round %d: tenant sums %+v do not match totals %+v", round, sums, st)
		}
		if window == 0 && st.SharedBatches != 0 {
			t.Fatalf("round %d: window 0 formed %d shared batches", round, st.SharedBatches)
		}
		sharedBatches += st.SharedBatches
		sharedReads += st.SharedReads
	}

	if sharedBatches == 0 || sharedQueries == 0 {
		t.Errorf("no shared batch across all rounds (batches %d, queries %d) — the window never merged arrivals",
			sharedBatches, sharedQueries)
	}
	if sharedReads == 0 {
		t.Error("no shared cursor reads across all rounds — batched queries never shared a scan")
	}
}
