package mapred_test

// Property test for shared scans: for random schemas, datasets, predicates,
// and job mixes, every job's output and per-job logical accounting from
// mapred.RunBatch must be byte-identical to running the job solo through
// mapred.Run. Shared scans are an optimization — one cursor set, physical
// work charged once — never a semantics change.
//
// The external test package breaks the import cycle: core implements the
// shared input format over mapred's interfaces, and this test drives both.

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
	"colmr/internal/sim"
)

var (
	bpPrefixes = []string{"alpha/", "beta/", "gamma/", "delta/"}
	bpKeys     = []string{"k0", "k1", "k2", "k3", "k4", "k5"}
)

// bpSchema builds a random record schema, always ending with a clustered
// long column "t" (set monotone in the load order) so scheduler-tier
// elision has real work, and a map column for the DCSL variant.
func bpSchema(rng *rand.Rand) *serde.Schema {
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
	return serde.RecordOf("Batch", fields...)
}

func bpValue(rng *rand.Rand, s *serde.Schema) any {
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
		return bpPrefixes[rng.Intn(len(bpPrefixes))] + string(rune('a'+rng.Intn(26)))
	case serde.KindMap:
		n := rng.Intn(4)
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			m[bpKeys[rng.Intn(len(bpKeys))]] = bpValue(rng, s.Elem)
		}
		return m
	}
	panic("unhandled kind")
}

func bpLeaf(rng *rand.Rand, schema *serde.Schema) scan.Predicate {
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
			return scan.HasPrefix(f.Name, bpPrefixes[rng.Intn(len(bpPrefixes))])
		}
		return scan.Cmp(f.Name, op, bpPrefixes[rng.Intn(len(bpPrefixes))]+string(rune('a'+rng.Intn(26))))
	case serde.KindMap:
		return scan.KeyExists(f.Name, bpKeys[rng.Intn(len(bpKeys))])
	}
	return scan.NotNull(f.Name)
}

func bpPredicate(rng *rand.Rand, schema *serde.Schema, depth int) scan.Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		return bpLeaf(rng, schema)
	}
	kids := make([]scan.Predicate, 2)
	for i := range kids {
		kids[i] = bpPredicate(rng, schema, depth-1)
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

var bpLayouts = []core.LoadOptions{
	{Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 20}},
	{Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20}},
	{Default: colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 2 << 10}},
}

// bpLoad writes records rows of schema at dataset, "t" clustered in the load
// order: split-directories cover disjoint ranges, the regime where per-job
// elision diverges between members.
func bpLoad(t testing.TB, rng *rand.Rand, fs *hdfs.FileSystem, dataset string, schema *serde.Schema, opts core.LoadOptions, records int) {
	t.Helper()
	w, err := core.NewWriter(fs, dataset, schema, opts, nil)
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
}

// bpJob builds one random job over the dataset: random predicate (possibly
// none), projection, materialization mode, and reduce shape. The mapper
// renders the projected columns (fmt prints maps in sorted key order, so
// rendering is deterministic); reduce jobs count per rendered key with the
// reducer doubling as an associative combiner.
func bpJob(rng *rand.Rand, schema *serde.Schema, dataset, out string) *mapred.Job {
	names := schema.FieldNames()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	proj := append([]string(nil), names[:1+rng.Intn(len(names))]...)

	spec := &scan.Spec{Columns: proj, Lazy: rng.Intn(2) == 0}
	if rng.Intn(5) > 0 { // one in five jobs scans unfiltered
		spec.Predicate = bpPredicate(rng, schema, 2)
	}
	spec.NoElide = rng.Intn(4) == 0
	// The bloom dimension: batches mix bloom-on and bloom-off members,
	// forcing the union tier to stay conservative for the dissenter.
	spec.NoBloom = rng.Intn(4) == 0
	// The vectorize dimension: scalar members in otherwise-vectorized
	// batches force the whole cursor set scalar, and a solo run in the
	// other mode must still produce identical outputs and counters.
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

// logicalStats projects the per-job counters that must be identical between
// solo and batched execution (physical I/O and CPU are charged to the
// batch's shared stats instead).
func logicalStats(st sim.TaskStats) [8]int64 {
	return [8]int64{
		st.RecordsProcessed, st.RecordsPruned, st.RecordsFiltered,
		st.GroupsPruned, st.BloomPruned, st.SplitsPruned, st.OutputRecords, st.OutputBytes,
	}
}

func readParts(t testing.TB, fs *hdfs.FileSystem, path string, parts int) []string {
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

// TestSharedScanEquivalenceProperty runs four rounds; the benchmark of the
// same name runs twelve.
func TestSharedScanEquivalenceProperty(t *testing.T) {
	t.Parallel()
	checkSharedScanEquivalenceProperty(t, 4)
}

func BenchmarkSharedScanEquivalenceProperty(b *testing.B) {
	for range b.N {
		checkSharedScanEquivalenceProperty(b, 12)
	}
}

func checkSharedScanEquivalenceProperty(t testing.TB, rounds int) {
	records := 240
	rng := rand.New(rand.NewSource(20110905))
	var sharedTasks, sharedReads int64
	for round := 0; round < rounds; round++ {
		schema := bpSchema(rng)
		opts := bpLayouts[round%len(bpLayouts)]
		opts.SplitRecords = int64(20 + rng.Intn(100))
		fs := hdfs.New(sim.SingleNode(), int64(round))
		bpLoad(t, rng, fs, "/d", schema, opts, records)

		njobs := 2 + rng.Intn(3)
		soloJobs := make([]*mapred.Job, njobs)
		batchJobs := make([]*mapred.Job, njobs)
		for j := 0; j < njobs; j++ {
			save := rng.Int63()
			jr := rand.New(rand.NewSource(save))
			soloJobs[j] = bpJob(jr, schema, "/d", fmt.Sprintf("/solo/%d/%d", round, j))
			jr = rand.New(rand.NewSource(save))
			batchJobs[j] = bpJob(jr, schema, "/d", fmt.Sprintf("/batch/%d/%d", round, j))
		}

		soloRes := make([]*mapred.Result, njobs)
		for j, job := range soloJobs {
			var err error
			if soloRes[j], err = mapred.Run(fs, job); err != nil {
				t.Fatalf("round %d job %d solo: %v", round, j, err)
			}
		}
		br, err := mapred.RunBatch(fs, batchJobs...)
		if err != nil {
			t.Fatalf("round %d batch: %v", round, err)
		}
		sharedTasks += int64(br.SharedTasks)
		sharedReads += br.Shared.SharedReads

		for j := 0; j < njobs; j++ {
			pred := "none"
			if p := soloJobs[j].Conf.Scan.Predicate; p != nil {
				pred = p.String()
			}
			ctx := fmt.Sprintf("round %d job %d (pred %q)", round, j, pred)
			solo, batch := soloRes[j], br.Results[j]
			parts := soloJobs[j].Conf.NumReducers
			if soloJobs[j].Reducer == nil || parts < 1 {
				parts = 1
			}
			soloOut := readParts(t, fs, soloJobs[j].Conf.OutputPath, parts)
			batchOut := readParts(t, fs, batchJobs[j].Conf.OutputPath, parts)
			for p := range soloOut {
				if soloOut[p] != batchOut[p] {
					t.Fatalf("%s: partition %d output differs:\nsolo:  %q\nbatch: %q", ctx, p, soloOut[p], batchOut[p])
				}
			}
			if got, want := logicalStats(batch.Total), logicalStats(solo.Total); got != want {
				t.Fatalf("%s: logical stats differ: batch %v, solo %v", ctx, got, want)
			}
			if batch.OutputRecords != solo.OutputRecords || batch.ReduceGroups != solo.ReduceGroups {
				t.Fatalf("%s: reduce accounting differs: batch %d/%d, solo %d/%d",
					ctx, batch.OutputRecords, batch.ReduceGroups, solo.OutputRecords, solo.ReduceGroups)
			}
			if batch.Plan.SplitsTotal != solo.Plan.SplitsTotal ||
				batch.Plan.SplitsPruned != solo.Plan.SplitsPruned ||
				batch.Plan.RecordsPruned != solo.Plan.RecordsPruned {
				t.Fatalf("%s: plan differs: batch %+v, solo %+v", ctx, batch.Plan, solo.Plan)
			}
			// The invariant every tier upholds, per job, in both modes.
			st := batch.Total
			if st.RecordsPruned+st.RecordsFiltered+st.RecordsProcessed != int64(records) {
				t.Fatalf("%s: pruned %d + filtered %d + processed %d != %d",
					ctx, st.RecordsPruned, st.RecordsFiltered, st.RecordsProcessed, records)
			}
		}
	}
	if sharedTasks == 0 {
		t.Error("no shared map task across all rounds — batching never fired")
	}
	if sharedReads == 0 {
		t.Error("no shared cursor reads across all rounds — cursor sharing never fired")
	}
}
