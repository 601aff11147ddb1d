package scan_test

// Property test for scheduler-tier split elision: for random schemas,
// datasets, predicates, and split counts, a scan with elision enabled must
// return exactly the records a scan with elision disabled returns, and the
// job-level accounting invariant — records pruned at any tier + records
// filtered + records returned == dataset size — must hold in both modes.
//
// Every random schema gets an extra clustered long column "t" (monotone in
// the load order, like a log timestamp), so predicates touching it give the
// scheduler tier real elision opportunities; predicates over the other
// columns exercise the no-elision-possible regime.
//
// Bloom consultation is a third random dimension: each round draws a bloom
// setting, both elision arms run under it, and a third arm re-runs with the
// setting flipped — all three must return identical records, Bloom proofs
// being proofs. BloomPruned must stay zero when consultation is off and
// within GroupsPruned when on.

import (
	"fmt"
	"math/rand"
	"testing"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// elisionScan drains every split of a planned scan, returning the
// projected rows, and the stats aggregate with the scheduler report folded
// in (as mapred.Run does).
func elisionScan(t testing.TB, fs *hdfs.FileSystem, conf *mapred.JobConf, proj []string) ([][]any, sim.TaskStats, scan.PruneReport) {
	t.Helper()
	in := &core.InputFormat{}
	splits, report, err := in.PlannedSplits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	var total sim.TaskStats
	total.SplitsPruned = int64(report.SplitsPruned)
	total.RecordsPruned = report.RecordsPruned
	var rows [][]any
	for _, sp := range splits {
		var st sim.TaskStats
		rr, err := in.Open(fs, conf, sp, hdfs.AnyNode, &st)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, v, ok, err := rr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rec := v.(serde.Record)
			row := make([]any, len(proj))
			for i, col := range proj {
				if row[i], err = rec.Get(col); err != nil {
					t.Fatal(err)
				}
			}
			rows = append(rows, row)
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
		total.Add(st)
	}
	return rows, total, report
}

// TestElisionEquivalenceProperty runs 16 rounds, the fewest in which a group
// is bloom-pruned; the benchmark of the same name runs 25.
func TestElisionEquivalenceProperty(t *testing.T) {
	t.Parallel()
	checkElisionEquivalenceProperty(t, 16)
}

func BenchmarkElisionEquivalenceProperty(b *testing.B) {
	for range b.N {
		checkElisionEquivalenceProperty(b, 25)
	}
}

func checkElisionEquivalenceProperty(t testing.TB, rounds int) {
	records := 240
	rng := rand.New(rand.NewSource(20110711))
	var elisions, bloomPrunes int64
	for round := 0; round < rounds; round++ {
		base := randSchema(rng)
		fields := append(append([]serde.Field{}, base.Fields...), serde.Field{Name: "t", Type: serde.Long()})
		schema := serde.RecordOf("Elide", fields...)
		recs := make([]*serde.GenericRecord, records)
		for i := range recs {
			rec := serde.NewRecord(schema)
			for _, f := range base.Fields {
				if err := rec.Set(f.Name, randValue(rng, f.Type)); err != nil {
					t.Fatal(err)
				}
			}
			// t is clustered: monotone in the load order, spanning the same
			// [0, 1000) domain random long predicates draw literals from.
			if err := rec.Set("t", int64(i)*1000/int64(records)); err != nil {
				t.Fatal(err)
			}
			recs[i] = rec
		}
		pred := randPredicate(rng, schema, 2)

		names := schema.FieldNames()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		proj := names[:1+rng.Intn(len(names))]
		lazy := rng.Intn(2) == 0
		bloom := rng.Intn(2) == 0
		splitRecords := int64(20 + rng.Intn(100)) // 3..12 split-directories

		for vi, opts := range layoutVariants(schema) {
			opts.SplitRecords = splitRecords
			cfg := sim.SingleNode()
			fs := hdfs.New(cfg, int64(round))
			w, err := core.NewWriter(fs, "/e", schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.Append(rec); err != nil {
					t.Fatalf("round %d %s: %v", round, variantName(vi), err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			conf := func(elide, bloom bool) *mapred.JobConf {
				conf := core.ScanDataset("/e").Columns(proj...).Lazy(lazy).Where(pred).Elide(elide).Bloom(bloom).Conf()
				return &conf
			}
			ctx := fmt.Sprintf("round %d %s: pred %s (bloom %v)", round, variantName(vi), pred, bloom)
			on, onSt, report := elisionScan(t, fs, conf(true, bloom), proj)
			off, offSt, offReport := elisionScan(t, fs, conf(false, bloom), proj)
			alt, altSt, _ := elisionScan(t, fs, conf(true, !bloom), proj)
			elisions += int64(report.SplitsPruned)
			if offReport.SplitsPruned != 0 {
				t.Fatalf("%s: elision disabled but %d splits pruned", ctx, offReport.SplitsPruned)
			}
			if len(on) != len(off) {
				t.Fatalf("%s: elision returned %d records, baseline %d", ctx, len(on), len(off))
			}
			if len(alt) != len(on) {
				t.Fatalf("%s: flipping bloom changed the result: %d records vs %d", ctx, len(alt), len(on))
			}
			for i := range on {
				for j, col := range proj {
					if !serde.ValuesEqual(schema.Field(col), on[i][j], off[i][j]) {
						t.Fatalf("%s: match %d column %s differs: %v vs %v", ctx, i, col, on[i][j], off[i][j])
					}
					if !serde.ValuesEqual(schema.Field(col), on[i][j], alt[i][j]) {
						t.Fatalf("%s: match %d column %s differs across bloom settings: %v vs %v",
							ctx, i, col, on[i][j], alt[i][j])
					}
				}
			}
			for mode, st := range map[string]sim.TaskStats{"elision": onSt, "baseline": offSt, "bloom-flipped": altSt} {
				if st.RecordsPruned+st.RecordsFiltered+int64(len(on)) != int64(records) {
					t.Fatalf("%s: %s: pruned %d + filtered %d + returned %d != total %d",
						ctx, mode, st.RecordsPruned, st.RecordsFiltered, len(on), records)
				}
				if st.BloomPruned > st.GroupsPruned {
					t.Fatalf("%s: %s: BloomPruned %d exceeds GroupsPruned %d",
						ctx, mode, st.BloomPruned, st.GroupsPruned)
				}
			}
			// Arms that ran with consultation off must attribute nothing to
			// the filter, whichever arm that is this round; the bloom-on
			// arms feed the liveness counter.
			armBloom := map[string]bool{"elision": bloom, "baseline": bloom, "bloom-flipped": !bloom}
			for mode, st := range map[string]sim.TaskStats{"elision": onSt, "baseline": offSt, "bloom-flipped": altSt} {
				if armBloom[mode] {
					bloomPrunes += st.BloomPruned
				} else if st.BloomPruned != 0 {
					t.Fatalf("%s: %s: bloom disabled but BloomPruned = %d", ctx, mode, st.BloomPruned)
				}
			}
		}
	}
	// The clustered column must have given the scheduler real work at
	// least somewhere across the random rounds, and the bloom dimension
	// must have produced at least one bloom-decisive group proof.
	if elisions == 0 {
		t.Error("no split was ever elided across all rounds — the clustered column is not driving the scheduler tier")
	}
	if bloomPrunes == 0 {
		t.Error("no group was ever bloom-pruned across all rounds — the bloom dimension is not driving the group tier")
	}
}
