package core

import (
	"sync/atomic"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// predConf builds a job conf with projection, laziness, and predicate.
func predConf(columns []string, lazy bool, pred scan.Predicate) *mapred.JobConf {
	conf := &mapred.JobConf{}
	if columns != nil {
		SetColumns(conf, columns...)
	}
	SetLazy(conf, lazy)
	if pred != nil {
		scan.SetPredicate(conf, pred)
	}
	return conf
}

// wantMatches filters the loaded records by predicate, by brute force.
func wantMatches(t *testing.T, recs []*serde.GenericRecord, pred scan.Predicate) []*serde.GenericRecord {
	t.Helper()
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

func TestPredicatePushdownMatchesBruteForce(t *testing.T) {
	fs := testFS(t, 8)
	recs := loadDataset(t, fs, "/data/crawl", LoadOptions{
		SplitRecords: 64,
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 16},
	}, 300)

	preds := []scan.Predicate{
		scan.HasPrefix("url", "http://ibm.com/jp"),
		scan.Gt("fetchTime", int64(1293840000000+150)),
		scan.And(
			scan.HasPrefix("url", "http://site"),
			scan.Le("fetchTime", int64(1293840000000+100)),
		),
		scan.KeyExists("metadata", "server"),
		scan.Not(scan.HasPrefix("url", "http://site")),
		scan.Or(), // constant false: everything pruned
	}
	for _, lazy := range []bool{false, true} {
		for _, pred := range preds {
			want := wantMatches(t, recs, pred)
			rows, st := scanAll(t, fs, "/data/crawl", predConf([]string{"url", "content"}, lazy, pred))
			if len(rows) != len(want) {
				t.Fatalf("lazy=%v pred=%s: got %d rows, want %d", lazy, pred, len(rows), len(want))
			}
			for i, row := range rows {
				wurl, _ := want[i].Get("url")
				if !serde.ValuesEqual(serde.String(), row["url"], wurl) {
					t.Fatalf("lazy=%v pred=%s: row %d url mismatch", lazy, pred, i)
				}
				wcontent, _ := want[i].Get("content")
				if !serde.ValuesEqual(serde.Bytes(), row["content"], wcontent) {
					t.Fatalf("lazy=%v pred=%s: row %d content mismatch", lazy, pred, i)
				}
			}
			if st.RecordsPruned+st.RecordsFiltered+int64(len(rows)) != int64(len(recs)) {
				t.Errorf("lazy=%v pred=%s: pruned %d + filtered %d + returned %d != total %d",
					lazy, pred, st.RecordsPruned, st.RecordsFiltered, len(rows), len(recs))
			}
		}
	}
}

// TestPredicateFilterColumnOutsideProjection checks that a predicate may
// reference columns the projection omits: they are read for filtering but
// do not appear in the output record.
func TestPredicateFilterColumnOutsideProjection(t *testing.T) {
	fs := testFS(t, 8)
	recs := loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 64}, 200)
	pred := scan.HasPrefix("url", "http://ibm.com/jp")
	rows, _ := scanAll(t, fs, "/data/crawl", predConf([]string{"fetchTime"}, false, pred))
	want := wantMatches(t, recs, pred)
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		if len(row) != 1 {
			t.Fatalf("row %d has fields %v, want only fetchTime", i, row)
		}
		wv, _ := want[i].Get("fetchTime")
		if row["fetchTime"] != wv {
			t.Fatalf("row %d fetchTime = %v, want %v", i, row["fetchTime"], wv)
		}
	}
}

// TestLazyGetRejectsFilterOnlyColumn checks lazy and eager records agree:
// a predicate column outside the projection is readable by neither, even
// though the lazy reader holds an open cursor for it.
func TestLazyGetRejectsFilterOnlyColumn(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 64}, 100)
	pred := scan.Gt("fetchTime", int64(0))
	conf := predConf([]string{"url"}, true, pred)
	conf.InputPaths = []string{"/data/crawl"}
	in := &InputFormat{}
	splits, err := in.Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := in.Open(fs, conf, splits[0], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	_, v, ok, err := rr.Next()
	if err != nil || !ok {
		t.Fatalf("Next = (%v, %v)", ok, err)
	}
	rec := v.(serde.Record)
	if _, err := rec.Get("url"); err != nil {
		t.Fatalf("projected column: %v", err)
	}
	if _, err := rec.Get("fetchTime"); err == nil {
		t.Fatal("lazy Get on filter-only column should fail like eager mode")
	}
}

// TestPredicateUnknownColumn checks the error surface.
func TestPredicateUnknownColumn(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 64}, 100)
	conf := predConf(nil, false, scan.Eq("nope", 1))
	conf.InputPaths = []string{"/data/crawl"}
	in := &InputFormat{}
	splits, err := in.Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Open(fs, conf, splits[0], 0, nil); err == nil {
		t.Fatal("predicate on unknown column should fail at Open")
	}
}

// TestZoneMapPruningSkipsGroups checks that a selective predicate on a
// skip-list layout prunes whole groups and deserializes fewer filter
// values than a full scan.
func TestZoneMapPruningSkipsGroups(t *testing.T) {
	fs := testFS(t, 8)
	// fetchTime is monotonically increasing, so zone maps slice the record
	// space cleanly: a range predicate over the tail prunes every earlier
	// group.
	loadDataset(t, fs, "/data/crawl", LoadOptions{
		SplitRecords: 100,
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 10},
	}, 400)
	pred := scan.Gt("fetchTime", int64(1293840000000+389)) // last 10 records
	rows, st := scanAll(t, fs, "/data/crawl", predConf([]string{"url"}, false, pred))
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	if st.GroupsPruned == 0 || st.RecordsPruned == 0 {
		t.Errorf("no zone-map pruning: %+v", st)
	}
	// 400 records in groups of 10: 38 of 40 groups lie wholly below the
	// cut (the 390-cut is mid-group), so at least 370 records must be
	// pruned without evaluation.
	if st.RecordsPruned < 370 {
		t.Errorf("RecordsPruned = %d, want >= 370", st.RecordsPruned)
	}

	// The same scan without pushdown deserializes every url value.
	full, fullSt := scanAll(t, fs, "/data/crawl", predConf([]string{"url"}, false, nil))
	if len(full) != 400 {
		t.Fatalf("full scan returned %d rows", len(full))
	}
	if st.CPU.StringBytes >= fullSt.CPU.StringBytes {
		t.Errorf("pushdown deserialized %d string bytes, full scan %d — no savings",
			st.CPU.StringBytes, fullSt.CPU.StringBytes)
	}
	if st.CPU.SkippedBytes == 0 {
		t.Error("pushdown charged no skipped bytes")
	}
}

// TestPredicateAcrossSplitDirs checks pruning state resets between the
// split-directories of one multi-directory split.
func TestPredicateAcrossSplitDirs(t *testing.T) {
	fs := testFS(t, 8)
	recs := loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 50}, 200)
	pred := scan.HasPrefix("url", "http://ibm.com/jp")
	want := wantMatches(t, recs, pred)
	conf := predConf(nil, false, pred)
	conf.InputPaths = []string{"/data/crawl"}
	in := &InputFormat{DirsPerSplit: 4} // all 4 dirs in one split
	splits, err := in.Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 {
		t.Fatalf("got %d splits, want 1", len(splits))
	}
	rr, err := in.Open(fs, conf, splits[0], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	var got int
	for {
		_, v, ok, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rec := v.(serde.Record)
		url, err := rec.Get("url")
		if err != nil {
			t.Fatal(err)
		}
		wurl, _ := want[got].Get("url")
		if url != wurl {
			t.Fatalf("match %d: url %v, want %v", got, url, wurl)
		}
		got++
	}
	if got != len(want) {
		t.Fatalf("got %d matches, want %d", got, len(want))
	}
}

// TestPredicateViaJob runs pushdown through the full MapReduce engine.
func TestPredicateViaJob(t *testing.T) {
	fs := testFS(t, 8)
	recs := loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 64}, 200)
	pred := scan.HasPrefix("url", "http://ibm.com/jp")
	want := wantMatches(t, recs, pred)

	conf := mapred.JobConf{InputPaths: []string{"/data/crawl"}}
	SetColumns(&conf, "url")
	SetLazy(&conf, true)
	scan.SetPredicate(&conf, pred)
	var seen atomic.Int64 // map tasks run in parallel
	job := &mapred.Job{
		Conf:   conf,
		Output: mapred.NullOutput{},
		Input:  &InputFormat{},
		Mapper: mapred.MapperFunc(func(_, value any, emit mapred.Emit) error {
			rec := value.(serde.Record)
			url, err := rec.Get("url")
			if err != nil {
				return err
			}
			seen.Add(1)
			return emit(url, int64(1))
		}),
	}
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != int64(len(want)) {
		t.Fatalf("map saw %d records, want %d", seen.Load(), len(want))
	}
	if res == nil {
		t.Fatal("nil result")
	}
}

// TestDCSLDictionaryProbeAvoidsMaterialization checks the value tier's
// dictionary-aware key tests: an exists() predicate over a DCSL column is
// decided from the window dictionary and per-record id lists, so the map
// values never materialize. The same scan over a skip-list layout (no
// prober) must return identical rows while building every filter map.
func TestDCSLDictionaryProbeAvoidsMaterialization(t *testing.T) {
	pred := scan.KeyExists("metadata", "server") // present in every record
	run := func(layout colfile.Layout) (int, int64) {
		fs := testFS(t, 8)
		loadDataset(t, fs, "/data/crawl", LoadOptions{
			SplitRecords: 64,
			Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 16},
			PerColumn:    map[string]colfile.Options{"metadata": {Layout: layout, StatsEvery: 16}},
		}, 200)
		rows, st := scanAll(t, fs, "/data/crawl", predConf([]string{"fetchTime"}, false, pred))
		return len(rows), st.CPU.ValuesMaterialized
	}
	dcslRows, dcslValues := run(colfile.DCSL)
	slRows, slValues := run(colfile.SkipList)
	if dcslRows != 200 || slRows != 200 {
		t.Fatalf("rows = %d (dcsl) / %d (skiplist), want 200", dcslRows, slRows)
	}
	// The skip-list reader materializes each record's metadata map (four
	// values: three entries plus the map) to answer exists(); the DCSL
	// prober answers from ids alone, leaving only the projected column.
	if dcslValues*2 >= slValues {
		t.Errorf("DCSL probe materialized %d values vs %d without probing — no savings", dcslValues, slValues)
	}
}

// TestElisionInJobStats runs a real MapReduce job over a multi-split
// dataset with a selective predicate on a clustered column and checks the
// engine surfaces the scheduler tier: fewer map tasks than
// split-directories, SplitsPruned in the job's aggregate stats, and output
// identical to a run with elision disabled.
func TestElisionInJobStats(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 50}, 400) // 8 split-directories
	pred := scan.Gt("fetchTime", int64(1293840000000+379))                // last 20 records

	run := func(elide bool) *mapred.Result {
		conf := predConf([]string{"url"}, false, pred)
		conf.InputPaths = []string{"/data/crawl"}
		scan.SetElision(conf, elide)
		res, err := mapred.Run(fs, &mapred.Job{
			Conf:   *conf,
			Output: mapred.NullOutput{},
			Input:  &InputFormat{},
			Mapper: mapred.MapperFunc(func(_, value any, emit mapred.Emit) error {
				url, err := value.(serde.Record).Get("url")
				if err != nil {
					return err
				}
				return emit(url, int64(1))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	on := run(true)
	off := run(false)
	if on.Plan.SplitsTotal != 8 || on.Plan.SplitsPruned == 0 {
		t.Fatalf("plan = %+v, want some of 8 split-directories pruned", on.Plan)
	}
	if got, want := len(on.MapTasks), 8-on.Plan.SplitsPruned; got != want {
		t.Errorf("%d map tasks ran, want %d", got, want)
	}
	if on.Total.SplitsPruned == 0 {
		t.Error("SplitsPruned missing from job stats")
	}
	if off.Plan.SplitsPruned != 0 || len(off.MapTasks) != 8 {
		t.Fatalf("elision disabled: plan %+v over %d tasks, want 8 unpruned", off.Plan, len(off.MapTasks))
	}
	if on.OutputRecords != off.OutputRecords || on.OutputRecords != 20 {
		t.Errorf("output = %d (elide) vs %d (baseline), want 20", on.OutputRecords, off.OutputRecords)
	}
	// The engine folds elided records into the job total, so the tier-sum
	// invariant holds in both modes.
	for name, res := range map[string]*mapred.Result{"elide": on, "baseline": off} {
		sum := res.Total.RecordsPruned + res.Total.RecordsFiltered + res.Total.RecordsProcessed
		if sum != 400 {
			t.Errorf("%s: pruned %d + filtered %d + processed %d = %d, want 400",
				name, res.Total.RecordsPruned, res.Total.RecordsFiltered, res.Total.RecordsProcessed, sum)
		}
	}
}

// TestReaderFileTierPrunesHandBuiltSplit exercises the reader-side file
// pruning tier, which planner-judged splits skip (the scheduler already
// held the same proof): a hand-built multi-directory split must cross
// irrelevant directories from footer aggregates alone, counting
// FilesPruned, without parsing a header or charging a data byte.
func TestReaderFileTierPrunesHandBuiltSplit(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 100}, 400)
	dirs, err := listSplitDirs(fs, "/data/crawl")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 4 {
		t.Fatalf("got %d split-directories, want 4", len(dirs))
	}
	pred := scan.Gt("fetchTime", int64(1293840000000+389)) // last 10 records
	conf := predConf([]string{"url"}, false, pred)
	conf.InputPaths = []string{"/data/crawl"}

	var st sim.TaskStats
	rr, err := (&InputFormat{}).Open(fs, conf, &Split{Dirs: dirs}, 0, &st)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	rows := 0
	for {
		_, _, ok, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows++
	}
	if rows != 10 {
		t.Fatalf("got %d rows, want 10", rows)
	}
	// Three of four directories lie wholly below the cut: each is pruned
	// at the file tier (two open files per directory: url + fetchTime).
	if st.FilesPruned != 6 {
		t.Errorf("FilesPruned = %d, want 6", st.FilesPruned)
	}
	if st.RecordsPruned+st.RecordsFiltered+int64(rows) != 400 {
		t.Errorf("pruned %d + filtered %d + returned %d != 400", st.RecordsPruned, st.RecordsFiltered, rows)
	}
}
