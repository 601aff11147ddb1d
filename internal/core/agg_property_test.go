package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Aggregation pushdown properties. The pushdown path (DrainAggregate:
// zone-stat shortcuts, batch folds over selection bitmaps, scalar
// fallback) must produce bit-for-bit the rows a brute-force fold over the
// loaded records produces, for random datasets x layouts x predicates x
// aggregate specs, with vectorization on and off and under shared batch
// execution — and its logical pruning counters must match a materializing
// scan of the same predicate exactly.

var aggPropSchema = serde.RecordOf("T",
	serde.Field{Name: "g", Type: serde.String()},
	serde.Field{Name: "a", Type: serde.Long()},
	serde.Field{Name: "b", Type: serde.Double()},
	serde.Field{Name: "s", Type: serde.String()},
)

// aggPropLoad writes a random dataset: "g" a low-cardinality group key,
// "a" a long (monotone when sorted, so zone maps are tight), "b" a double,
// "s" a low-cardinality string payload. CIF datasets carry no nulls (the
// writer requires every field); null folding is covered by the scan-level
// FoldBatch/FoldRecord property test.
func aggPropLoad(t *testing.T, fs *hdfs.FileSystem, dataset string, rng *rand.Rand, opts LoadOptions, n int, sorted bool) []*serde.GenericRecord {
	t.Helper()
	w, err := NewWriter(fs, dataset, aggPropSchema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	card := 1 + rng.Intn(5)
	recs := make([]*serde.GenericRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := serde.NewRecord(aggPropSchema)
		rec.Set("g", fmt.Sprintf("grp%d", rng.Intn(card)))
		if sorted {
			rec.Set("a", int64(i))
		} else {
			rec.Set("a", rng.Int63n(1000))
		}
		rec.Set("b", float64(rng.Intn(500))/7)
		rec.Set("s", fmt.Sprintf("v%02d", rng.Intn(40)))
		recs = append(recs, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func aggPropLayout(rng *rand.Rand) LoadOptions {
	split := int64(32 + 16*rng.Intn(4))
	switch rng.Intn(4) {
	case 0:
		return LoadOptions{SplitRecords: split, Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 16}}
	case 1:
		return LoadOptions{SplitRecords: split, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16}}
	case 2:
		return LoadOptions{SplitRecords: split, Default: colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 4 << 10}}
	default:
		return LoadOptions{
			SplitRecords: split,
			Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16},
			PerColumn: map[string]colfile.Options{
				"g": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
				"s": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
			},
		}
	}
}

func aggPropPred(rng *rand.Rand) scan.Predicate {
	switch rng.Intn(7) {
	case 0:
		return nil
	case 1:
		return scan.Le("a", rng.Int63n(1200)-100)
	case 2:
		return scan.HasPrefix("s", "v0")
	case 3:
		return scan.Eq("g", fmt.Sprintf("grp%d", rng.Intn(6)))
	case 4:
		return scan.NotNull("b")
	case 5:
		return scan.And(scan.Gt("a", int64(50)), scan.Ne("g", "grp0"))
	default:
		return scan.Or(scan.Eq("s", "v00"), scan.IsNull("a"))
	}
}

func aggPropAggregate(t *testing.T, rng *rand.Rand) *scan.Aggregate {
	t.Helper()
	pool := []string{
		"count", "count(a)", "count(g)",
		"min(a)", "max(a)", "sum(a)",
		"min(s)", "max(s)", "min(g)",
		"sum(b)", "max(b)",
	}
	k := 1 + rng.Intn(3)
	picked := make([]string, 0, k)
	for _, i := range rng.Perm(len(pool))[:k] {
		picked = append(picked, pool[i])
	}
	src := strings.Join(picked, ",")
	if rng.Intn(2) == 0 {
		src += " group by g"
	}
	a, err := scan.ParseAggregate(src)
	if err != nil {
		t.Fatalf("ParseAggregate(%q): %v", src, err)
	}
	return a
}

// aggPropGold folds the in-memory records by brute force: predicate via
// scalar Eval, values via FoldRecord — the reference the pushdown must hit.
func aggPropGold(t *testing.T, recs []*serde.GenericRecord, pred scan.Predicate, agg *scan.Aggregate) *scan.AggState {
	t.Helper()
	st := scan.NewAggState(agg)
	for _, rec := range recs {
		ev := scan.Getter(func(col string) (any, error) { return rec.Get(col) })
		if pred != nil {
			ok, err := pred.Eval(ev)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
		}
		if err := st.FoldRecord(ev); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// aggValEqual compares aggregate outputs; doubles use a relative tolerance
// because task-merge order reassociates float sums.
func aggValEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if af, ok := a.(float64); ok {
		bf, ok := b.(float64)
		if !ok {
			return false
		}
		return math.Abs(af-bf) <= 1e-9*math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
	}
	c, ok := scan.CompareValues(a, b)
	return ok && c == 0
}

func checkAggRows(t *testing.T, ctx string, got, want []scan.AggRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if !aggValEqual(got[i].Group, want[i].Group) {
			t.Fatalf("%s: group %d is %v, want %v", ctx, i, got[i].Group, want[i].Group)
		}
		if len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("%s: group %d has %d values, want %d", ctx, i, len(got[i].Values), len(want[i].Values))
		}
		for j := range got[i].Values {
			if !aggValEqual(got[i].Values[j], want[i].Values[j]) {
				t.Fatalf("%s: group %d value %d is %v (%T), want %v (%T)",
					ctx, i, j, got[i].Values[j], got[i].Values[j], want[i].Values[j], want[i].Values[j])
			}
		}
	}
}

func TestAggPushdownMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		fs := testFS(t, 4)
		n := 100 + rng.Intn(200)
		sorted := rng.Intn(2) == 0
		recs := aggPropLoad(t, fs, "/d", rng, aggPropLayout(rng), n, sorted)
		pred := aggPropPred(rng)
		agg := aggPropAggregate(t, rng)
		ctx := fmt.Sprintf("trial %d (n=%d sorted=%v pred=%v agg=%s)", trial, n, sorted, pred, agg)

		want := aggPropGold(t, recs, pred, agg).Rows()
		var stats [2]sim.TaskStats
		for vi, vect := range []bool{true, false} {
			b := ScanDataset("/d").Where(pred).Vectorize(vect).Aggregate(agg)
			res, err := mapred.Run(fs, b.AggJob())
			if err != nil {
				t.Fatalf("%s vect=%v: %v", ctx, vect, err)
			}
			checkAggRows(t, fmt.Sprintf("%s vect=%v", ctx, vect), res.Agg.Rows(), want)
			if res.Total.RecordsProcessed != 0 {
				t.Fatalf("%s vect=%v: %d records materialized during aggregation",
					ctx, vect, res.Total.RecordsProcessed)
			}
			stats[vi] = res.Total
		}

		// The pruning trajectory is the predicate's, not the consumer's: a
		// materializing scan of the same predicate must report identical
		// logical counters, and so must the scalar agg run.
		conf := predConf(agg.Columns(nil), false, pred)
		conf.InputPaths = []string{"/d"}
		_, mat := scanAll(t, fs, "/d", conf)
		for vi, st := range stats {
			if st.GroupsPruned != mat.GroupsPruned || st.RecordsPruned != mat.RecordsPruned ||
				st.BloomPruned != mat.BloomPruned || st.SplitsPruned != mat.SplitsPruned {
				t.Fatalf("%s vect=%v: pruning counters diverge from materializing scan:\nagg %+v\nmat groups=%d records=%d bloom=%d splits=%d",
					ctx, vi == 0, st, mat.GroupsPruned, mat.RecordsPruned, mat.BloomPruned, mat.SplitsPruned)
			}
		}
	}
}

// TestAggSharedBatchMatchesBruteForce: aggregation jobs co-scheduled with
// record jobs in one shared batch fold per-member state off the shared
// cursor set and still match brute force.
func TestAggSharedBatchMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		fs := testFS(t, 4)
		n := 150 + rng.Intn(150)
		recs := aggPropLoad(t, fs, "/d", rng, aggPropLayout(rng), n, rng.Intn(2) == 0)

		pred1 := aggPropPred(rng)
		pred2 := aggPropPred(rng)
		agg1 := aggPropAggregate(t, rng)
		agg2 := aggPropAggregate(t, rng)
		ctx := fmt.Sprintf("trial %d (n=%d pred1=%v agg1=%s pred2=%v agg2=%s)", trial, n, pred1, agg1, pred2, agg2)

		var matched atomic.Int64 // shared map tasks run in parallel
		jobs := []*mapred.Job{
			ScanDataset("/d").Where(pred1).Aggregate(agg1).AggJob(),
			ScanDataset("/d").Where(pred2).Aggregate(agg2).AggJob(),
			ScanDataset("/d").Columns("s").Where(pred1).Job(
				mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { matched.Add(1); return nil })),
		}
		br, err := mapred.RunBatch(fs, jobs...)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		want1 := aggPropGold(t, recs, pred1, agg1)
		want2 := aggPropGold(t, recs, pred2, agg2)
		checkAggRows(t, ctx+" job1", br.Results[0].Agg.Rows(), want1.Rows())
		checkAggRows(t, ctx+" job2", br.Results[1].Agg.Rows(), want2.Rows())
		if wantRows := int64(len(wantMatchesSchema(t, recs, pred1))); br.Results[0].Total.RowsAggregated != wantRows {
			t.Fatalf("%s: job1 aggregated %d rows, want %d", ctx, br.Results[0].Total.RowsAggregated, wantRows)
		}
		if br.Results[0].Total.RecordsProcessed != 0 || br.Results[1].Total.RecordsProcessed != 0 {
			t.Fatalf("%s: shared agg members materialized records (%d, %d)",
				ctx, br.Results[0].Total.RecordsProcessed, br.Results[1].Total.RecordsProcessed)
		}
		wantMatched := int64(len(wantMatchesSchema(t, recs, pred1)))
		if matched.Load() != wantMatched {
			t.Fatalf("%s: record member saw %d rows, want %d", ctx, matched.Load(), wantMatched)
		}
	}
}

// TestAggSharedDuplicatesFoldOnce: two members of a three-member batch share
// their aggregate and predicate, so the scan folds their rows once. AggStates
// still hands each its own state — equal to the brute-force fold, and not
// aliased, so merging into one leaves the other as it was — and the shared
// stats count one fold per distinct aggregate per batch: twice the solo
// scan's, for the two distinct aggregates.
func TestAggSharedDuplicatesFoldOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8800))
	fs := testFS(t, 4)
	const n = 300
	opts := LoadOptions{SplitRecords: n, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16}}
	recs := aggPropLoad(t, fs, "/d", rng, opts, n, false)
	pred := scan.Le("a", int64(600))
	var aggs []*scan.Aggregate
	for _, src := range []string{"count,sum(a) group by g", "count,sum(a) group by g", "max(b),sum(b)"} {
		agg, err := scan.ParseAggregate(src)
		if err != nil {
			t.Fatal(err)
		}
		aggs = append(aggs, agg)
	}
	in := &InputFormat{}
	confs := make([]*mapred.JobConf, len(aggs))
	for i, agg := range aggs {
		conf := ScanDataset("/d").Where(pred).Aggregate(agg).Conf()
		confs[i] = &conf
	}
	splits, err := in.Splits(fs, confs[0])
	if err != nil || len(splits) != 1 {
		t.Fatalf("%d splits, %v", len(splits), err)
	}

	var solo sim.TaskStats
	rr, err := in.Open(fs, confs[0], splits[0], hdfs.AnyNode, &solo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.(mapred.AggRecordReader).DrainAggregate(); err != nil {
		t.Fatal(err)
	}
	rr.Close()

	members := []*sim.TaskStats{{}, {}, {}}
	var shared sim.TaskStats
	sr, err := in.OpenShared(fs, confs, splits[0], []int{0, 1, 2}, hdfs.AnyNode, members, &shared)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, _, ok, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	states := sr.(mapred.AggSharedRecordReader).AggStates()
	sr.Close()

	for i, st := range states {
		checkAggRows(t, fmt.Sprintf("member %d", i), st.Rows(), aggPropGold(t, recs, pred, aggs[i]).Rows())
		if members[i].RowsAggregated != solo.RowsAggregated {
			t.Fatalf("member %d aggregated %d rows, solo %d", i, members[i].RowsAggregated, solo.RowsAggregated)
		}
	}
	if states[0] == states[1] {
		t.Fatal("duplicate members share one AggState object")
	}
	if err := states[0].Merge(states[1]); err != nil {
		t.Fatal(err)
	}
	checkAggRows(t, "member 1 after merging it into member 0", states[1].Rows(), aggPropGold(t, recs, pred, aggs[1]).Rows())
	if solo.AggBatches == 0 {
		t.Fatal("the solo scan folded no batch: the fixture no longer exercises the fold")
	}
	if shared.AggBatches != 2*solo.AggBatches {
		t.Fatalf("shared scan counted %d batch folds for 2 distinct aggregates, solo %d for one", shared.AggBatches, solo.AggBatches)
	}
}

func wantMatchesSchema(t *testing.T, recs []*serde.GenericRecord, pred scan.Predicate) []*serde.GenericRecord {
	t.Helper()
	if pred == nil {
		return recs
	}
	var out []*serde.GenericRecord
	for _, rec := range recs {
		ok, err := pred.Eval(scan.Getter(func(col string) (any, error) { return rec.Get(col) }))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, rec)
		}
	}
	return out
}

// TestAggStatsShortcutZeroDecode: on a sorted column with zone statistics
// and no predicate, COUNT/MIN/MAX are answered from the stats tier alone —
// groups take the shortcut and not a single value is deserialized or
// vector-decoded.
func TestAggStatsShortcutZeroDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fs := testFS(t, 4)
	const n = 300
	opts := LoadOptions{SplitRecords: 64, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16}}
	recs := aggPropLoad(t, fs, "/d", rng, opts, n, true)
	agg, err := scan.ParseAggregate("count,count(a),min(a),max(a)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapred.Run(fs, ScanDataset("/d").Aggregate(agg).AggJob())
	if err != nil {
		t.Fatal(err)
	}
	checkAggRows(t, "stats shortcut", res.Agg.Rows(), aggPropGold(t, recs, nil, agg).Rows())
	st := res.Total
	if st.AggGroupsShortcut == 0 {
		t.Error("no group took the zone-stats shortcut")
	}
	if st.RowsAggregated != n {
		t.Errorf("aggregated %d rows, want %d", st.RowsAggregated, n)
	}
	if st.CPU.ValuesMaterialized != 0 || st.CPU.VecValues != 0 {
		t.Errorf("stats-only aggregation decoded data: %d values materialized, %d vector values",
			st.CPU.ValuesMaterialized, st.CPU.VecValues)
	}
}

// TestDictIdEqualityMatchesStringEquality: equality over a DCSL string
// column runs on window dictionary ids when vectorized — same verdicts,
// same pruning trajectory, zero string decode for the filter — and the
// scalar path (string comparisons) agrees needle by needle, present or
// absent.
func TestDictIdEqualityMatchesStringEquality(t *testing.T) {
	count, err := scan.ParseAggregate("count")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(5200 + trial)))
		fs := testFS(t, 4)
		n := 150 + rng.Intn(250)
		opts := LoadOptions{
			SplitRecords: int64(32 + 16*rng.Intn(3)),
			Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16},
			PerColumn: map[string]colfile.Options{
				"g": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
				"s": {Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 16},
			},
		}
		recs := aggPropLoad(t, fs, "/d", rng, opts, n, false)

		needles := []string{
			fmt.Sprintf("v%02d", rng.Intn(40)), // usually present
			"zebra",                            // never present
		}
		for _, needle := range needles {
			for _, pred := range []scan.Predicate{scan.Eq("s", needle), scan.Ne("s", needle)} {
				ctx := fmt.Sprintf("trial %d pred=%v", trial, pred)
				want := int64(len(wantMatchesSchema(t, recs, pred)))

				run := func(vect bool) sim.TaskStats {
					res, err := mapred.Run(fs, ScanDataset("/d").Where(pred).Vectorize(vect).Aggregate(count).AggJob())
					if err != nil {
						t.Fatalf("%s vect=%v: %v", ctx, vect, err)
					}
					rows := res.Agg.Rows()
					if len(rows) != 1 || !aggValEqual(rows[0].Values[0], want) {
						t.Fatalf("%s vect=%v: count %v, want %d", ctx, vect, rows, want)
					}
					return res.Total
				}
				idst := run(true)
				sst := run(false)

				if idst.GroupsPruned != sst.GroupsPruned || idst.RecordsPruned != sst.RecordsPruned ||
					idst.BloomPruned != sst.BloomPruned || idst.SplitsPruned != sst.SplitsPruned ||
					idst.RecordsFiltered != sst.RecordsFiltered {
					t.Fatalf("%s: pruning counters diverge:\nid path %+v\nstring  %+v", ctx, idst, sst)
				}
				if sst.DictIdCompares != 0 {
					t.Fatalf("%s: scalar path charged %d dict-id compares", ctx, sst.DictIdCompares)
				}
				// Rows that reach evaluation compare as ids, never as
				// strings. An absent needle is answered by the dictionary
				// probe alone — whole windows verdict without a single
				// per-row compare — so only a present needle must charge
				// DictIdCompares.
				if reached := int64(n) - idst.RecordsPruned; reached > 0 {
					if needle != "zebra" && idst.DictIdCompares == 0 {
						t.Fatalf("%s: %d rows evaluated but no dict-id compares", ctx, reached)
					}
					if idst.CPU.StringBytes != 0 {
						t.Fatalf("%s: id path decoded %d string bytes for the filter", ctx, idst.CPU.StringBytes)
					}
				}
			}
		}
	}
}
