package core

import (
	"fmt"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// loadClustered writes a dataset whose x column is monotone in the load
// order, so split-directories cover disjoint x ranges.
func loadClustered(t testing.TB, fs *hdfs.FileSystem, dataset string, records, splits int64) {
	t.Helper()
	schema := serde.RecordOf("C",
		serde.Field{Name: "x", Type: serde.Long()},
		serde.Field{Name: "y", Type: serde.Int()},
		serde.Field{Name: "s", Type: serde.String()})
	opts := LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20},
		SplitRecords: (records + splits - 1) / splits,
	}
	w, err := NewWriter(fs, dataset, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < records; i++ {
		rec := serde.NewRecord(schema)
		rec.SetAt(0, i*1000/records)
		rec.SetAt(1, int32(i%10))
		rec.SetAt(2, fmt.Sprintf("v%04d", i))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedScanAutoDirsPerSplit checks selectivity-estimated task sizing:
// a selective predicate merges its few surviving, sparsely matching
// directories into fewer map tasks, while an unselective scan keeps one
// directory per task.
func TestSharedScanAutoDirsPerSplit(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadClustered(t, fs, "/a", 1600, 16)
	in := &InputFormat{DirsPerSplit: AutoDirsPerSplit}

	plan := func(pred scan.Predicate, elide bool) ([]mapred.Split, scan.PruneReport) {
		conf := ScanDataset("/a").Columns("s").Where(pred).Elide(elide).Conf()
		splits, report, err := in.PlannedSplits(fs, &conf)
		if err != nil {
			t.Fatal(err)
		}
		return splits, report
	}

	// Unselective: every directory survives, one task each (the fixed
	// default's behavior).
	full, _ := plan(nil, true)
	if len(full) != 16 {
		t.Fatalf("unfiltered auto plan has %d splits, want 16", len(full))
	}

	// Clustered-selective: every surviving directory is dense with matches,
	// so merging would not reduce per-task matching work — auto sizing must
	// keep one task per survivor, like the fixed default.
	clustered, report := plan(scan.Le("x", 250), true)
	surviving := report.SplitsTotal - report.SplitsPruned
	if surviving < 2 {
		t.Fatalf("elision left %d surviving directories; the fixture is broken", surviving)
	}
	if len(clustered) != surviving {
		t.Fatalf("auto sizing built %d tasks for %d dense surviving directories", len(clustered), surviving)
	}

	// Uniform-selective: y == 5 survives every directory at ~10% within-dir
	// selectivity, so the estimator must merge directories until each task
	// holds roughly a directory's worth of matching records.
	sel, _ := plan(scan.Eq("y", 5), true)
	if len(sel) >= 16 {
		t.Fatalf("auto sizing kept %d tasks for 16 sparse directories", len(sel))
	}

	// Output equivalence: merging directories into one task never changes
	// the records returned.
	countRecords := func(in *InputFormat, elide bool) int64 {
		conf := &mapred.JobConf{InputPaths: []string{"/a"}, Scan: &scan.Spec{Columns: []string{"s"}, Predicate: scan.Le("x", 250), NoElide: !elide}}
		splits, _, err := in.PlannedSplits(fs, conf)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, sp := range splits {
			rr, err := in.Open(fs, conf, sp, hdfs.AnyNode, nil)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, _, ok, err := rr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			rr.Close()
		}
		return n
	}
	auto := countRecords(in, true)
	fixed := countRecords(&InputFormat{}, true)
	if auto != fixed {
		t.Fatalf("auto sizing returned %d records, fixed sizing %d", auto, fixed)
	}
}

// TestSharedSplitsMemberSets checks the co-scheduling plan itself: member
// sets follow each job's own elision verdicts, and runs with identical
// member sets become shared splits.
func TestSharedSplitsMemberSets(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadClustered(t, fs, "/m", 1600, 16)
	in := &InputFormat{}

	conf := func(pred scan.Predicate) *mapred.JobConf {
		return &mapred.JobConf{InputPaths: []string{"/m"}, Scan: &scan.Spec{Columns: []string{"s"}, Predicate: pred}}
	}
	confs := []*mapred.JobConf{
		conf(scan.Le("x", 500)), // first half of the directories
		conf(scan.Le("x", 250)), // first quarter
		conf(scan.Gt("x", 750)), // last quarter
	}
	splits, reports, err := in.SharedSplits(fs, confs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	var sharedDirs, soloDirs int
	for _, sp := range splits {
		cs := sp.Split.(*Split)
		if !cs.Judged {
			t.Fatalf("shared split %s not marked judged", cs)
		}
		switch {
		case len(sp.Members) > 1:
			sharedDirs += len(cs.Dirs)
			// Jobs 0 and 1 overlap on the first quarter; job 2 never joins.
			for _, m := range sp.Members {
				if m == 2 {
					t.Fatalf("split %s shares members %v with a disjoint job", cs, sp.Members)
				}
			}
		default:
			soloDirs += len(cs.Dirs)
		}
	}
	if sharedDirs == 0 {
		t.Fatal("no directory was co-scheduled for the overlapping jobs")
	}
	if soloDirs == 0 {
		t.Fatal("no directory remained single-member (jobs 0 and 2 have exclusive regions)")
	}
}

// TestSharedScanDeletesMatchSolo: a one-member shared scan is the solo scan,
// counter for counter, when a delete vector covers the rows at which a zone
// map would be consulted — the first rows of a prunable group, a whole
// prunable group, the directory's tail. The solo loops step over deleted
// rows before they ask for a verdict, so a pruned extent starts at a live
// row and a fully deleted group is never counted; the shared reader's union
// tier and its member's replay must do the same. Every field of the task's
// stats is held equal: the union tier's and the member's prune counters each
// to the solo reader's, and everything else in their sum.
func TestSharedScanDeletesMatchSolo(t *testing.T) {
	schema := serde.RecordOf("R",
		serde.Field{Name: "x", Type: serde.Long()},
		serde.Field{Name: "s", Type: serde.String()})
	fs := testFS(t, 4)
	// 400 rows, zone-map groups of 50, x ascending: under x <= 60 the groups
	// from row 100 on are prunable.
	opts := LoadOptions{Default: colfile.Options{Layout: colfile.SkipList, StatsEvery: 50}, SplitRecords: 400}
	w, err := NewWriter(fs, "/d", schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		rec := serde.NewRecord(schema)
		rec.SetAt(0, int64(i))
		rec.SetAt(1, fmt.Sprintf("v%d", i%7))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var ords []int64
	for _, run := range [][2]int64{{3, 5}, {100, 110}, {200, 250}, {390, 400}} {
		for o := run[0]; o < run[1]; o++ {
			ords = append(ords, o)
		}
	}
	split := &Split{Dirs: []string{"/d/s0"}, Dels: []*DelSet{newDelSet(ords)}}
	agg, err := scan.ParseAggregate("count,sum(x) group by s")
	if err != nil {
		t.Fatal(err)
	}
	for _, vect := range []bool{true, false} {
		for _, agg := range []*scan.Aggregate{nil, agg} {
			ctx := fmt.Sprintf("vectorize=%v agg=%v", vect, agg)
			conf := predConf(nil, false, scan.Le("x", int64(60)))
			conf.InputPaths = []string{"/d"}
			conf.Scan.NoVec, conf.Scan.Agg = !vect, agg
			in := &InputFormat{}

			var solo sim.TaskStats
			rr, err := in.Open(fs, conf, split, hdfs.AnyNode, &solo)
			if err != nil {
				t.Fatal(err)
			}
			soloRows := 0
			if agg != nil {
				if _, err := rr.(mapred.AggRecordReader).DrainAggregate(); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			} else {
				for ; ; soloRows++ {
					if _, _, ok, err := rr.Next(); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					} else if !ok {
						break
					}
				}
			}
			rr.Close()

			var member, shared sim.TaskStats
			sr, err := in.OpenShared(fs, []*mapred.JobConf{conf}, split, []int{0}, hdfs.AnyNode, []*sim.TaskStats{&member}, &shared)
			if err != nil {
				t.Fatal(err)
			}
			sharedRows := 0
			for ; ; sharedRows++ {
				if _, _, _, ok, err := sr.Next(); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				} else if !ok {
					break
				}
			}
			sr.Close()

			if sharedRows != soloRows {
				t.Fatalf("%s: shared scan surfaced %d rows, solo %d", ctx, sharedRows, soloRows)
			}
			// Of the six prunable groups, [100,150) is pruned from its first
			// live row, 110, and [200,250), deleted whole, is never consulted.
			if solo.GroupsPruned != 5 || solo.RecordsPruned != 40+4*50 {
				t.Fatalf("%s: solo scan pruned %d groups, %d rows: the deletes no longer sit where zone maps are consulted",
					ctx, solo.GroupsPruned, solo.RecordsPruned)
			}
			prunes := func(st sim.TaskStats) [3]int64 {
				return [3]int64{st.GroupsPruned, st.RecordsPruned, st.BloomPruned}
			}
			if prunes(shared) != prunes(solo) || prunes(member) != prunes(solo) {
				t.Fatalf("%s: groups/records/bloom pruned: union tier %v, member %v, solo %v",
					ctx, prunes(shared), prunes(member), prunes(solo))
			}
			// One member: the union tier's verdicts are the member's, counted
			// on both sides. Everything else is counted once.
			whole := member
			whole.GroupsPruned, whole.RecordsPruned, whole.BloomPruned = 0, 0, 0
			whole.Add(shared)
			if whole != solo {
				t.Fatalf("%s: task stats differ:\nshared %+v\nsolo   %+v", ctx, whole, solo)
			}
			checkTwoMemberDeletes(t, ctx, fs, split, vect, agg)
		}
	}
}

// checkTwoMemberDeletes is TestSharedScanDeletesMatchSolo's two-member case:
// members x <= 60 and x <= 260 over the same delete vector. The union tier
// runs the wider predicate, so rows 100..110 — deleted, and inside the
// union's may-match region but past the first member's — are crossed by a
// batch the first member's replay must step over exactly as its solo reader
// does. Each member's rows, aggregate and logical counters must be its solo
// run's, field for field, and nothing physical may land in a member's stats.
func checkTwoMemberDeletes(t *testing.T, ctx string, fs *hdfs.FileSystem, split *Split, vect bool, agg *scan.Aggregate) {
	t.Helper()
	in := &InputFormat{}
	var confs []*mapred.JobConf
	var want []sim.TaskStats
	var wantRows []int
	var wantAgg []*scan.AggState
	for _, k := range []int64{60, 260} {
		conf := predConf(nil, false, scan.Le("x", k))
		conf.InputPaths = []string{"/d"}
		conf.Scan.NoVec, conf.Scan.Agg = !vect, agg
		var solo sim.TaskStats
		rr, err := in.Open(fs, conf, split, hdfs.AnyNode, &solo)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		var st *scan.AggState
		if agg != nil {
			if st, err = rr.(mapred.AggRecordReader).DrainAggregate(); err != nil {
				t.Fatalf("%s x<=%d: %v", ctx, k, err)
			}
		} else {
			for ; ; rows++ {
				if _, _, ok, err := rr.Next(); err != nil {
					t.Fatalf("%s x<=%d: %v", ctx, k, err)
				} else if !ok {
					break
				}
			}
		}
		rr.Close()
		confs = append(confs, conf)
		want = append(want, sim.TaskStats{
			GroupsPruned:    solo.GroupsPruned,
			RecordsPruned:   solo.RecordsPruned,
			BloomPruned:     solo.BloomPruned,
			RecordsFiltered: solo.RecordsFiltered,
			RowsAggregated:  solo.RowsAggregated,
		})
		wantRows = append(wantRows, rows)
		wantAgg = append(wantAgg, st)
	}

	members := make([]sim.TaskStats, 2)
	var shared sim.TaskStats
	sr, err := in.OpenShared(fs, confs, split, []int{0, 1}, hdfs.AnyNode, []*sim.TaskStats{&members[0], &members[1]}, &shared)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, 2)
	for {
		_, _, idx, ok, err := sr.Next()
		if err != nil {
			t.Fatalf("%s two members: %v", ctx, err)
		}
		if !ok {
			break
		}
		for _, i := range idx {
			rows[i]++
		}
	}
	if agg != nil {
		for i, st := range sr.(mapred.AggSharedRecordReader).AggStates() {
			checkAggRows(t, fmt.Sprintf("%s two members, member %d", ctx, i), st.Rows(), wantAgg[i].Rows())
		}
	}
	sr.Close()
	for i := range members {
		if rows[i] != wantRows[i] {
			t.Fatalf("%s two members: member %d surfaced %d rows, solo %d", ctx, i, rows[i], wantRows[i])
		}
		if members[i] != want[i] {
			t.Fatalf("%s two members: member %d logical counters differ from its solo run:\nmember %+v\nsolo   %+v", ctx, i, members[i], want[i])
		}
	}
}
