package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/vec"
)

// Vectorized-vs-scalar equivalence at the reader level: identical rows in
// identical order, identical logical counters (the pruning trajectory is
// shared), and the vectorized counters crediting the batch path only when it
// ran.

func vecLayouts() map[string]LoadOptions {
	return map[string]LoadOptions{
		"plain":    {SplitRecords: 64, Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 16}},
		"skiplist": {SplitRecords: 64, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16}},
		"block":    {SplitRecords: 64, Default: colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 4 << 10}},
		"dcsl": {SplitRecords: 64, Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 16},
			PerColumn: map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 16}}},
	}
}

// checkVecEquivalence is the vectorize dimension's property: the batch
// path (run(true)) and the record-at-a-time oracle (run(false), Spec.NoVec)
// return the same rows in the same order with the same logical counters,
// and — with no predicate, where the batch path only assembles records —
// the same sim.TaskStats altogether: same bytes read, same boxed decode
// charges, no vector counter touched.
func checkVecEquivalence(t testing.TB, ctx string, schema *serde.Schema, pred scan.Predicate, live int64, run func(vect bool) ([]map[string]any, sim.TaskStats)) []map[string]any {
	t.Helper()
	vrows, vst := run(true)
	srows, sst := run(false)
	if len(vrows) != len(srows) {
		t.Fatalf("%s: vectorized %d rows, scalar %d", ctx, len(vrows), len(srows))
	}
	for i := range vrows {
		for _, f := range schema.Fields {
			if !serde.ValuesEqual(f.Type, vrows[i][f.Name], srows[i][f.Name]) {
				t.Fatalf("%s: row %d column %s differs: %v vs %v", ctx, i, f.Name, vrows[i][f.Name], srows[i][f.Name])
			}
		}
	}
	if sst.RowsVectorized != 0 || sst.VecBatches != 0 {
		t.Fatalf("%s: scalar run credited vectorized counters (%d rows, %d batches)",
			ctx, sst.RowsVectorized, sst.VecBatches)
	}
	if pred == nil {
		if vst != sst {
			t.Fatalf("%s: full-drain stats differ:\nbatch  %+v\nscalar %+v", ctx, vst, sst)
		}
		if int64(len(vrows)) != live {
			t.Fatalf("%s: returned %d of %d live rows", ctx, len(vrows), live)
		}
		return vrows
	}
	if vst.GroupsPruned != sst.GroupsPruned || vst.RecordsPruned != sst.RecordsPruned ||
		vst.BloomPruned != sst.BloomPruned || vst.RecordsFiltered != sst.RecordsFiltered {
		t.Fatalf("%s: logical counters differ:\nvectorized pruned %d/%d bloom %d filtered %d\nscalar     pruned %d/%d bloom %d filtered %d",
			ctx, vst.GroupsPruned, vst.RecordsPruned, vst.BloomPruned, vst.RecordsFiltered,
			sst.GroupsPruned, sst.RecordsPruned, sst.BloomPruned, sst.RecordsFiltered)
	}
	if reached := live - vst.RecordsPruned; reached > 0 && vst.RowsVectorized == 0 {
		t.Fatalf("%s: %d records reached evaluation but none were vectorized", ctx, reached)
	}
	return vrows
}

func TestVectorizedScanEquivalence(t *testing.T) {
	preds := []scan.Predicate{
		nil, // a full selection: eager records assemble by the batch all the same
		scan.HasPrefix("url", "http://ibm.com"),
		scan.Gt("fetchTime", int64(1293840000000+150)),
		scan.And(
			scan.HasPrefix("url", "http://site"),
			scan.Le("fetchTime", int64(1293840000000+100)),
		),
		scan.Or(
			scan.HasPrefix("url", "http://ibm.com/jp"),
			scan.KeyExists("metadata", "server"),
		),
		scan.KeyExists("metadata", "server"),
		scan.Not(scan.HasPrefix("url", "http://site")),
		// Four columns under one disjunction: each child runs on the rows
		// every earlier child rejected and decodes its column only when some
		// are left (metadata's key test keeps it off the id path).
		scan.Or(
			scan.HasPrefix("url", "http://ibm.com/jp"),
			scan.Gt("fetchTime", int64(1293840000000+290)),
			scan.IsNull("content"),
			scan.IsNull("metadata"),
			scan.KeyExists("metadata", "server"),
		),
	}
	proj, err := crawlSchema.Project("url", "content")
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range vecLayouts() {
		fs := testFS(t, 4)
		loadDataset(t, fs, "/data/crawl", opts, 300)
		// The layout's runs share one vector cache: a later run's batch may
		// be served from what an earlier one admitted.
		cache := vec.New(16 << 20)
		for _, pred := range preds {
			for _, mode := range []struct {
				lazy bool
				vc   *vec.Cache
			}{{false, nil}, {true, nil}, {false, cache}, {true, cache}} {
				lazy := mode.lazy
				var vst sim.TaskStats
				ctx := fmt.Sprintf("%s pred=%v lazy=%v cached=%v", name, pred, lazy, mode.vc != nil)
				vrows := checkVecEquivalence(t, ctx, proj, pred, 300, func(vect bool) ([]map[string]any, sim.TaskStats) {
					conf := predConf([]string{"url", "content"}, lazy, pred)
					conf.Scan.NoVec = !vect
					conf.VecCache = mode.vc
					rows, st := scanAll(t, fs, "/data/crawl", conf)
					if vect {
						vst = st
					}
					return rows, st
				})
				if pred == nil {
					continue
				}
				if vst.RowsVectorized != int64(len(vrows))+vst.RecordsFiltered {
					t.Fatalf("%s: vectorized %d rows but returned %d + filtered %d",
						ctx, vst.RowsVectorized, len(vrows), vst.RecordsFiltered)
				}
				if vst.RecordsPruned+vst.RecordsFiltered+int64(len(vrows)) != 300 {
					t.Fatalf("%s: pruned %d + filtered %d + returned %d != 300",
						ctx, vst.RecordsPruned, vst.RecordsFiltered, len(vrows))
				}
			}
		}
	}
}

// TestVectorizedOrDecodesOnDemand holds a disjunction to the short-circuit:
// when its first child accepts every row, the later children's columns are
// never decoded, so the batch decodes exactly what the first child alone
// decodes.
func TestVectorizedOrDecodesOnDemand(t *testing.T) {
	first := scan.Gt("fetchTime", int64(0))
	for name, opts := range vecLayouts() {
		fs := testFS(t, 4)
		loadDataset(t, fs, "/data/crawl", opts, 300)
		_, alone := scanAll(t, fs, "/data/crawl", predConf([]string{"fetchTime"}, false, first))
		_, or := scanAll(t, fs, "/data/crawl", predConf([]string{"fetchTime"}, false, scan.Or(first, scan.HasPrefix("url", "zzz"))))
		if alone.CPU.VecValues == 0 {
			t.Fatalf("%s: the first child decoded no vector", name)
		}
		if or.CPU.VecValues != alone.CPU.VecValues || or.CPU.VecBytes != alone.CPU.VecBytes {
			t.Fatalf("%s: the disjunction decoded %d values / %d B, its first child alone %d / %d B",
				name, or.CPU.VecValues, or.CPU.VecBytes, alone.CPU.VecValues, alone.CPU.VecBytes)
		}
	}
}

// eqPropSchema draws a record schema for the random half of the property:
// "id" (the row's ordinal in the dataset) and "r" (uniform in [0,40)) to
// hang predicates on, then 3-6 columns over every kind a column can have.
func eqPropSchema(rng *rand.Rand) *serde.Schema {
	nested := serde.RecordOf("Inner",
		serde.Field{Name: "a", Type: serde.String()},
		serde.Field{Name: "b", Type: serde.Int()},
		serde.Field{Name: "m", Type: serde.MapOf(serde.String())})
	kinds := []func() *serde.Schema{
		serde.String, serde.Bytes, serde.Int, serde.Long, serde.Double, serde.Bool, serde.Time,
		func() *serde.Schema { return serde.MapOf(serde.Int()) },
		func() *serde.Schema { return serde.MapOf(serde.String()) },
		func() *serde.Schema { return serde.ArrayOf(serde.Long()) },
		func() *serde.Schema { return serde.ArrayOf(serde.String()) },
		func() *serde.Schema { return nested },
	}
	fields := []serde.Field{{Name: "id", Type: serde.Long()}, {Name: "r", Type: serde.Int()}}
	// One string and one bytes column always, so every round carves arenas.
	picks := []int{0, 1}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		picks = append(picks, rng.Intn(len(kinds)))
	}
	for i, k := range picks {
		fields = append(fields, serde.Field{Name: fmt.Sprintf("c%d", i), Type: kinds[k]()})
	}
	return serde.RecordOf("EqProperty", fields...)
}

// eqPropLayouts are the four layouts over schema; the DCSL variant puts
// every column DCSL can hold (maps, strings, bytes) on it.
func eqPropLayouts(schema *serde.Schema) map[string]LoadOptions {
	dcsl := map[string]colfile.Options{}
	for _, f := range schema.Fields {
		switch f.Type.Kind {
		case serde.KindMap, serde.KindString, serde.KindBytes:
			dcsl[f.Name] = colfile.Options{Layout: colfile.DCSL, Levels: []int{64, 8}, StatsEvery: 32}
		}
	}
	sl := colfile.Options{Layout: colfile.SkipList, Levels: []int{64, 8}, StatsEvery: 32}
	return map[string]LoadOptions{
		"plain":    {Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 32}},
		"skiplist": {Default: sl},
		"block":    {Default: colfile.Options{Layout: colfile.Block, Codec: "lzo", BlockBytes: 4 << 10}},
		"dcsl":     {Default: sl, PerColumn: dcsl},
	}
}

// TestEagerBatchEquivalence is the vectorize-dimension property over random
// ground: schemas of every column kind (strings and bytes on both sides of
// the arena cut-off), all four layouts, delete vectors, and split-directory
// sizes straddling the eager batch size, all directories read through one
// split so batches meet directory boundaries too. The test runs two rounds;
// the benchmark of the same name runs five.
func TestEagerBatchEquivalence(t *testing.T) {
	t.Parallel()
	checkEagerBatchEquivalence(t, 2)
}

func BenchmarkEagerBatchEquivalence(b *testing.B) {
	for range b.N {
		checkEagerBatchEquivalence(b, 5)
	}
}

func checkEagerBatchEquivalence(t testing.TB, rounds int) {
	dirRows := []int64{eagerBatchRows - 1, eagerBatchRows, eagerBatchRows + 1, 2*eagerBatchRows + 7, 300}
	rng := rand.New(rand.NewSource(20110829))
	for round := 0; round < rounds; round++ {
		schema := eqPropSchema(rng)
		per := dirRows[round%len(dirRows)]
		n := 2*per + 1 + rng.Int63n(per) // two full directories and a partial one
		recs := make([]*serde.GenericRecord, n)
		for i := range recs {
			rec := serde.RandomRecord(rng, schema)
			rec.SetAt(0, int64(i))
			rec.SetAt(1, int32(rng.Intn(40)))
			for j, f := range schema.Fields {
				// Every eighth payload is too long for the boxing arena.
				if long := rng.Intn(8) == 0; long && f.Type.Kind == serde.KindString {
					rec.SetAt(j, strings.Repeat("x", 200+rng.Intn(400)))
				} else if long && f.Type.Kind == serde.KindBytes {
					rec.SetAt(j, bytes.Repeat([]byte{byte(i)}, 200+rng.Intn(400)))
				}
			}
			recs[i] = rec
		}
		preds := []scan.Predicate{nil, scan.Le("r", int32(9)), scan.Le("id", n/2)}
		for name, opts := range eqPropLayouts(schema) {
			opts.SplitRecords = per
			fs := testFS(t, 4)
			w, err := NewWriter(fs, "/p", schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.Append(rec); err != nil {
					t.Fatalf("round %d %s: %v", round, name, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// Delete vectors on the first and last directories: single rows,
			// a run, and both ends of the directory; the middle one has none.
			split := &Split{}
			deleted := map[int64]bool{}
			for d := int64(0); d*per < n; d++ {
				dir := fmt.Sprintf("/p/s%d", d)
				rows := min(per, n-d*per)
				var del *DelSet
				if d != 1 {
					ords := []int64{0, rows - 1}
					for k := rows / 10; k > 0; k-- {
						ords = append(ords, rng.Int63n(rows))
					}
					for o := rows / 3; o < rows/3+9 && o < rows; o++ {
						ords = append(ords, o)
					}
					del = newDelSet(ords)
					for _, o := range ords {
						deleted[d*per+o] = true
					}
				}
				split.Dirs = append(split.Dirs, dir)
				split.Dels = append(split.Dels, del)
			}
			for _, pred := range preds {
				// Brute force over the loaded records is the oracle's oracle.
				var want []*serde.GenericRecord
				for i, rec := range recs {
					if deleted[int64(i)] {
						continue
					}
					if pred != nil {
						ok, err := pred.Eval(scan.Getter(rec.Get))
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							continue
						}
					}
					want = append(want, rec)
				}
				for _, lazy := range []bool{false, true} {
					ctx := fmt.Sprintf("round %d %s (%d rows/dir) pred=%v lazy=%v", round, name, per, pred, lazy)
					rows := checkVecEquivalence(t, ctx, schema, pred, n-int64(len(deleted)), func(vect bool) ([]map[string]any, sim.TaskStats) {
						conf := predConf(nil, lazy, pred)
						conf.InputPaths = []string{"/p"}
						conf.Scan.NoVec = !vect
						return drainSplits(t, fs, conf, []mapred.Split{split})
					})
					if len(rows) != len(want) {
						t.Fatalf("%s: %d rows, brute force %d", ctx, len(rows), len(want))
					}
					for i, rec := range want {
						for j, f := range schema.Fields {
							if !serde.ValuesEqual(f.Type, rows[i][f.Name], rec.GetAt(j)) {
								t.Fatalf("%s: row %d column %s is %v, loaded %v", ctx, i, f.Name, rows[i][f.Name], rec.GetAt(j))
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorizedProbeOnlyKeyTest pins the batch key-probe fast path: a DCSL
// map column read only through one exists() test and not projected is
// answered by ProbeKeys — no map values are decoded for the filter. The
// record-at-a-time oracle returns the same rows deciding exists() from the
// decoded map: each evaluated record's metadata map materializes once.
func TestVectorizedProbeOnlyKeyTest(t *testing.T) {
	fs := testFS(t, 4)
	recs := loadDataset(t, fs, "/data/crawl", vecLayouts()["dcsl"], 300)
	pred := scan.KeyExists("metadata", "server")
	want := wantMatches(t, recs, pred)
	proj, err := crawlSchema.Project("url")
	if err != nil {
		t.Fatal(err)
	}

	var st, ost sim.TaskStats
	rows := checkVecEquivalence(t, "probe-only", proj, pred, 300, func(vect bool) ([]map[string]any, sim.TaskStats) {
		conf := predConf([]string{"url"}, false, pred)
		conf.Scan.NoVec = !vect
		rows, s := scanAll(t, fs, "/data/crawl", conf)
		if vect {
			st = s
		} else {
			ost = s
		}
		return rows, s
	})
	if len(rows) != len(want) {
		t.Fatalf("probe-only scan returned %d rows, brute force %d", len(rows), len(want))
	}
	if st.RowsVectorized == 0 {
		t.Fatal("probe-only scan did not vectorize")
	}
	// The filter decodes no map values: the only materialized values are the
	// projected url column's, one per match.
	if st.CPU.ValuesMaterialized != int64(len(rows)) {
		t.Fatalf("probe-only scan materialized %d values for %d matches", st.CPU.ValuesMaterialized, len(rows))
	}
	// The oracle charges each metadata map as the map plus its entries.
	if ost.RecordsPruned != 0 {
		t.Fatalf("NoVec scan pruned %d records; the count below assumes every record is evaluated", ost.RecordsPruned)
	}
	mapValues := int64(0)
	for _, rec := range recs {
		m, err := rec.Get("metadata")
		if err != nil {
			t.Fatal(err)
		}
		mapValues += int64(len(m.(map[string]any)) + 1)
	}
	if got := ost.CPU.ValuesMaterialized; got != int64(len(rows))+mapValues {
		t.Fatalf("NoVec scan materialized %d values, want %d url values + %d for %d metadata maps",
			got, len(rows), mapValues, len(recs))
	}
}
