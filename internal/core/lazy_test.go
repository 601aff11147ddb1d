package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/race"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Lazy runs (scanPos.startRun): a column the map function reads on
// consecutive surfaced rows is decoded a run at a time. The property below
// holds the runs to the value-at-a-time loop (Spec.NoVec) — every value, in
// order, and the counters — whatever the map function's access pattern.

// lazyPattern says how often the map function reads one column on each
// surfaced row of a scan: reads[k] Gets on the k-th row Next returns.
type lazyPattern struct {
	name  string
	reads []uint8
	// exact marks a pattern under which runs cost exactly what the
	// value-at-a-time loop costs: read on every surfaced row to the end, or
	// never on more than lazyRunStreak consecutive ones. slack bounds the
	// values a pattern that is not exact may leave decoded and unread: each
	// time a stretch of consecutive reads breaks off, at most one run's tail —
	// and a run is no longer than the streak behind it, and had its first row
	// read, so the tail is at least two short of the stretch.
	exact bool
	slack int64
}

// drawLazyPattern draws a pattern over n surfaced rows.
func drawLazyPattern(rng *rand.Rand, n int) lazyPattern {
	p := lazyPattern{reads: make([]uint8, n)}
	switch rng.Intn(7) {
	case 0:
		p.name = "every row"
		for i := range p.reads {
			p.reads[i] = 1
		}
	case 1:
		p.name = "twice every row"
		for i := range p.reads {
			p.reads[i] = 2
		}
	case 2:
		stop := rng.Intn(n + 1)
		p.name = fmt.Sprintf("every row, abandoned at %d", stop)
		for i := 0; i < stop; i++ {
			p.reads[i] = 1
		}
	case 3:
		p.name = "bursts"
		for i := rng.Intn(20); i < n; i += 1 + rng.Intn(60) {
			for k := 3 + rng.Intn(38); k > 0 && i < n; k-- {
				p.reads[i] = 1
				i++
			}
		}
	default:
		prob := []float64{0.01, 0.06, 0.5}[rng.Intn(3)]
		p.name = fmt.Sprintf("random %.2f", prob)
		for i := range p.reads {
			if rng.Float64() < prob {
				p.reads[i] = 1
			}
		}
	}
	// Classify from the reads themselves.
	p.exact = true
	stretch := 0
	for _, k := range p.reads {
		if k > 0 {
			stretch++
			continue
		}
		if stretch > lazyRunStreak {
			p.exact = false
			p.slack += int64(min(stretch-2, lazyRunRows-1))
		}
		stretch = 0
	}
	return p
}

// lazyMember is one job of a lazy scan under test: its projection, predicate
// and the pattern its map function reads each projected column by.
type lazyMember struct {
	columns  []string
	pred     scan.Predicate
	patterns []lazyPattern
	rows     []int // the dataset rows it is owed, in order (brute force)
}

func (m *lazyMember) conf(vect bool) *mapred.JobConf {
	conf := predConf(m.columns, true, m.pred)
	conf.InputPaths = []string{"/p"}
	scan.SetVectorize(conf, vect)
	return conf
}

// visit plays the member's map function on its k-th record, appending every
// value it reads to seen. With gets false it reads nothing.
func (m *lazyMember) visit(t *testing.T, ctx string, rec serde.Record, k int, gets bool, seen *[]any) {
	t.Helper()
	if k >= len(m.rows) {
		t.Fatalf("%s: surfaced more than the %d rows owed", ctx, len(m.rows))
	}
	if !gets {
		return
	}
	for ci, col := range m.columns {
		for g := uint8(0); g < m.patterns[ci].reads[k]; g++ {
			v, err := rec.Get(col)
			if err != nil {
				t.Fatalf("%s: row %d Get(%q): %v", ctx, k, col, err)
			}
			*seen = append(*seen, v)
		}
	}
}

// check compares everything the member's map function read — kept until
// after the scan closed and the scratch pools churned — with what was loaded.
func (m *lazyMember) check(t *testing.T, ctx string, schema *serde.Schema, recs []*serde.GenericRecord, seen []any) {
	t.Helper()
	at := 0
	for k, row := range m.rows {
		for ci, col := range m.columns {
			fi := schema.FieldIndex(col)
			for g := uint8(0); g < m.patterns[ci].reads[k]; g++ {
				if at >= len(seen) {
					t.Fatalf("%s: read %d values, owed more", ctx, len(seen))
				}
				if want := recs[row].GetAt(fi); !serde.ValuesEqual(schema.Fields[fi].Type, seen[at], want) {
					t.Fatalf("%s: row %d (dataset row %d) column %s (%s) read as %v, loaded %v",
						ctx, k, row, col, m.patterns[ci].name, seen[at], want)
				}
				at++
			}
		}
	}
	if at != len(seen) {
		t.Fatalf("%s: read %d values, owed %d", ctx, len(seen), at)
	}
}

// soloLazyScan drains split for one member through the solo Reader.
func soloLazyScan(t *testing.T, ctx string, fs *hdfs.FileSystem, split *Split, m *lazyMember, vect, gets bool) ([]any, sim.TaskStats) {
	t.Helper()
	var st sim.TaskStats
	rr, err := (&InputFormat{}).Open(fs, m.conf(vect), split, hdfs.AnyNode, &st)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	var seen []any
	k := 0
	for ; ; k++ {
		_, v, ok, err := rr.Next()
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if !ok {
			break
		}
		m.visit(t, ctx, v.(serde.Record), k, gets, &seen)
	}
	rr.Close()
	if k != len(m.rows) {
		t.Fatalf("%s: surfaced %d rows, owed %d", ctx, k, len(m.rows))
	}
	return seen, st
}

// sharedLazyScan drains split for members through one SharedReader, returning
// what each member read and the members' and the cursor set's stats summed.
func sharedLazyScan(t *testing.T, ctx string, fs *hdfs.FileSystem, split *Split, members []*lazyMember, vect, gets bool) ([][]any, sim.TaskStats) {
	t.Helper()
	confs := make([]*mapred.JobConf, len(members))
	idx := make([]int, len(members))
	stats := make([]*sim.TaskStats, len(members))
	for i, m := range members {
		confs[i], idx[i], stats[i] = m.conf(vect), i, &sim.TaskStats{}
	}
	var total sim.TaskStats
	sr, err := (&InputFormat{}).OpenShared(fs, confs, split, idx, hdfs.AnyNode, stats, &total)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	seen := make([][]any, len(members))
	next := make([]int, len(members))
	for {
		_, vals, who, ok, err := sr.Next()
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if !ok {
			break
		}
		for i, mi := range who {
			members[mi].visit(t, ctx, vals[i].(serde.Record), next[mi], gets, &seen[mi])
			next[mi]++
		}
	}
	sr.Close()
	for i, m := range members {
		if next[i] != len(m.rows) {
			t.Fatalf("%s: member %d surfaced %d rows, owed %d", ctx, i, next[i], len(m.rows))
		}
		total.Add(*stats[i])
	}
	return seen, total
}

// filterFix is what a member's Gets on its own filter columns cost a batch
// scan and not the scalar loop (see checkLazyStats).
type filterFix struct{ values, records int64 }

func (m *lazyMember) filterFix() filterFix {
	var fix filterFix
	if m.pred == nil {
		return fix
	}
	filter := make([]bool, len(m.columns))
	for ci, col := range m.columns {
		for _, fc := range m.pred.Columns(nil) {
			filter[ci] = filter[ci] || fc == col
		}
	}
	for k := range m.rows {
		onFilter, elsewhere := int64(0), false
		for ci := range m.columns {
			if m.patterns[ci].reads[k] == 0 {
				continue
			}
			if filter[ci] {
				onFilter++
			} else {
				elsewhere = true
			}
		}
		fix.values += onFilter
		if onFilter > 0 && !elsewhere {
			fix.records++
		}
	}
	return fix
}

// decodeBytes sums the per-type decode counters.
func decodeBytes(c sim.CPUStats) int64 {
	return c.RawBytes + c.IntBytes + c.DoubleBytes + c.StringBytes + c.MapBytes + c.DictBytes
}

// checkLazyStats holds a scan with runs (got: the batch-capable scan under the
// members' patterns) to the value-at-a-time loop. With no predicate the NoVec
// scan is that loop outright. With one, the two scans charge the filter
// columns differently, patterns or no patterns, so each side is measured
// against itself reading nothing: got-gotIdle is what the Gets cost with runs,
// oracle-oracleIdle what they cost one value at a time — but for a projected
// filter column, which the scalar loop's Gets find in the cursor cache and a
// batch's box from its vector at one ValuesMaterialized apiece (fix.values);
// and the solo LazyRecord does not count a record materialized on a Get the
// cursor cache answers, so rows read through their filter columns alone are
// records only to the batch scan (fix.records).
func checkLazyStats(t *testing.T, ctx string, members []*lazyMember, fix filterFix, got, gotIdle, oracle, oracleIdle sim.TaskStats) {
	t.Helper()
	a, b := got, oracle
	a.Add(oracleIdle)
	b.Add(gotIdle)
	b.CPU.ValuesMaterialized += fix.values
	b.CPU.RecordsMaterialized += fix.records
	exact := true
	var slack int64
	var names []string
	for _, m := range members {
		for _, p := range m.patterns {
			exact = exact && p.exact
			slack += p.slack
			names = append(names, p.name)
		}
	}
	if exact {
		if a != b {
			t.Fatalf("%s: patterns %v leave no run unread, yet the stats differ from the value-at-a-time loop's:\nruns   %+v\noracle %+v", ctx, names, a, b)
		}
		return
	}
	if a.CPU.RecordsMaterialized != b.CPU.RecordsMaterialized {
		t.Fatalf("%s: %d records materialized, value-at-a-time %d", ctx, a.CPU.RecordsMaterialized, b.CPU.RecordsMaterialized)
	}
	if extra := a.CPU.ValuesMaterialized - b.CPU.ValuesMaterialized; extra < 0 || extra > slack {
		t.Fatalf("%s: patterns %v: %d values materialized beyond the value-at-a-time loop's %d, want between 0 and %d",
			ctx, names, extra, b.CPU.ValuesMaterialized, slack)
	}
	if decodeBytes(a.CPU) < decodeBytes(b.CPU) {
		t.Fatalf("%s: decoded %d bytes, fewer than the value-at-a-time loop's %d", ctx, decodeBytes(a.CPU), decodeBytes(b.CPU))
	}
}

func TestLazyRunsMatchValueAtATime(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	dirRows := []int64{700, 150, 301, 97, 520, 64}
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
			// Delete vectors on the first and last directories: scattered rows,
			// a stretch, and both ends; the middle directory has none.
			split := &Split{}
			deleted := map[int64]bool{}
			for d := int64(0); d*per < n; d++ {
				dir := fmt.Sprintf("/p/s%d", d)
				rows := min(per, n-d*per)
				del := ""
				if d != 1 {
					ords := []int64{0, rows - 1}
					for k := rows / 25; k > 0; k-- {
						ords = append(ords, rng.Int63n(rows))
					}
					for o := rows / 3; o < rows/3+5 && o < rows; o++ {
						ords = append(ords, o)
					}
					del = dir + "/_deletes.1"
					if err := WriteDeletes(fs, del, ords); err != nil {
						t.Fatal(err)
					}
					for _, o := range ords {
						deleted[d*per+o] = true
					}
				}
				split.Dirs = append(split.Dirs, dir)
				split.Dels = append(split.Dels, del)
			}
			// No predicate; a clustered one (long stretches of adjacent selected
			// rows, the rest pruned); two scattered ones (short stretches).
			preds := []scan.Predicate{nil, scan.Le("id", n/2), scan.Le("r", int32(19)), scan.Le("r", int32(36))}
			member := func(pred scan.Predicate) *lazyMember {
				m := &lazyMember{pred: pred}
				// A random projection in random order; now and then it takes in
				// the filter column.
				for _, fi := range rng.Perm(len(schema.Fields)) {
					if f := schema.Fields[fi]; fi >= 2 && (len(m.columns) < 2 || rng.Intn(3) > 0) {
						m.columns = append(m.columns, f.Name)
					} else if fi < 2 && rng.Intn(4) == 0 {
						m.columns = append(m.columns, f.Name)
					}
				}
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
					m.rows = append(m.rows, i)
				}
				for range m.columns {
					m.patterns = append(m.patterns, drawLazyPattern(rng, len(m.rows)))
				}
				return m
			}
			for _, pred := range preds {
				m := member(pred)
				ctx := fmt.Sprintf("round %d %s (%d rows/dir) pred=%v columns=%v", round, name, per, pred, m.columns)

				// Solo reader.
				got, gotSt := soloLazyScan(t, ctx+" solo", fs, split, m, true, true)
				_, gotIdle := soloLazyScan(t, ctx+" solo idle", fs, split, m, true, false)
				oracle, oracleSt := soloLazyScan(t, ctx+" solo NoVec", fs, split, m, false, true)
				_, oracleIdle := soloLazyScan(t, ctx+" solo NoVec idle", fs, split, m, false, false)
				m.check(t, ctx+" solo", schema, recs, got)
				m.check(t, ctx+" solo NoVec", schema, recs, oracle)
				checkLazyStats(t, ctx+" solo", []*lazyMember{m}, m.filterFix(), gotSt, gotIdle, oracleSt, oracleIdle)

				// The same member alone in a shared scan.
				one := []*lazyMember{m}
				sgot, sgotSt := sharedLazyScan(t, ctx+" shared1", fs, split, one, true, true)
				_, sgotIdle := sharedLazyScan(t, ctx+" shared1 idle", fs, split, one, true, false)
				soracle, soracleSt := sharedLazyScan(t, ctx+" shared1 NoVec", fs, split, one, false, true)
				_, soracleIdle := sharedLazyScan(t, ctx+" shared1 NoVec idle", fs, split, one, false, false)
				m.check(t, ctx+" shared1", schema, recs, sgot[0])
				m.check(t, ctx+" shared1 NoVec", schema, recs, soracle[0])
				// (The shared reader counts a record on any Get, cached or not.)
				checkLazyStats(t, ctx+" shared1", one, filterFix{values: m.filterFix().values}, sgotSt, sgotIdle, soracleSt, soracleIdle)

				// Three members over one cursor set: with no predicate on the
				// first the set runs the scalar loop over every row; with one on
				// each, evaluated batches. The cursors are shared, so a column's
				// streak is the three map functions' together: values only.
				three := []*lazyMember{m, member(preds[1+rng.Intn(3)]), member(preds[1+rng.Intn(3)])}
				for _, vect := range []bool{true, false} {
					tctx := fmt.Sprintf("%s shared3 vectorize=%v", ctx, vect)
					seen, _ := sharedLazyScan(t, tctx, fs, split, three, vect, true)
					for i, tm := range three {
						tm.check(t, fmt.Sprintf("%s member %d", tctx, i), schema, recs, seen[i])
					}
				}
			}
		}
	}
}

// A value the map function keeps is its own: the next Next, later runs over
// the same cursor (which reuse the run's slots and the pooled scratch vector),
// and Close leave it as it was read, on every layout.
func TestLazyRunValuesOutliveTheRun(t *testing.T) {
	const n = 900
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 3, ContentBytes: 120})
	schema := gen.Schema()
	for name, opts := range eqPropLayouts(schema) {
		opts.SplitRecords = n
		fs := hdfs.New(sim.SingleNode(), 1)
		w, err := NewWriter(fs, "/c", schema, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			if err := w.Append(gen.Record(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		conf := predConf([]string{"url", "content", "fetchTime"}, true, nil)
		conf.InputPaths = []string{"/c"}
		in := &InputFormat{}
		splits, err := in.Splits(fs, conf)
		if err != nil || len(splits) != 1 {
			t.Fatalf("%s: %d splits, %v", name, len(splits), err)
		}
		rr, err := in.Open(fs, conf, splits[0], hdfs.AnyNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		var kept [][3]any
		for {
			_, v, ok, err := rr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			var row [3]any
			for j, col := range []string{"url", "content", "fetchTime"} {
				if row[j], err = v.(serde.Record).Get(col); err != nil {
					t.Fatal(err)
				}
			}
			if i := len(kept); i%7 == 3 {
				// Scribble over a kept byte slice mid-run: its neighbours in
				// the run's arena must not see it.
				raw := row[1].([]byte)
				for j := range raw {
					raw[j] = '#'
				}
				_ = append(raw, "spill into whatever follows"...)
			}
			kept = append(kept, row)
		}
		rr.Close()
		if len(kept) != n {
			t.Fatalf("%s: %d rows, want %d", name, len(kept), n)
		}
		drainEager(t, fs, "/c", nil) // churn the pools the runs drew from
		for i, row := range kept {
			want := gen.Record(int64(i))
			for j, col := range []string{"url", "content", "fetchTime"} {
				if j == 1 && i%7 == 3 {
					continue
				}
				fi := schema.FieldIndex(col)
				if !serde.ValuesEqual(schema.Fields[fi].Type, row[j], want.GetAt(fi)) {
					t.Fatalf("%s: kept row %d column %s is %v, wrote %v", name, i, col, row[j], want.GetAt(fi))
				}
			}
		}
	}
}

// Get resolves a name once, through the projection: a column outside it is
// refused with the same words whether it is unknown, unprojected, or open only
// for the predicate — on the solo reader and in a shared scan, and after Close
// as well (no cursor is left to index).
func TestLazyGetRejectsUnprojected(t *testing.T) {
	fs := testFS(t, 4)
	loadDataset(t, fs, "/data/crawl", vecLayouts()["skiplist"], 120)
	conf := predConf([]string{"content", "url"}, true, scan.Gt("fetchTime", int64(0)))
	conf.InputPaths = []string{"/data/crawl"}
	in := &InputFormat{}
	splits, err := in.Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(ctx string, rec serde.Record) {
		t.Helper()
		for _, col := range []string{"fetchTime", "metadata", "nosuch"} {
			if _, err := rec.Get(col); err == nil || !strings.Contains(err.Error(), "is not in the projection [content url]") {
				t.Errorf("%s: Get(%q) = %v, want a not-in-the-projection error", ctx, col, err)
			}
		}
	}
	rr, err := in.Open(fs, conf, splits[0], hdfs.AnyNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, v, ok, err := rr.Next()
	if err != nil || !ok {
		t.Fatalf("solo: no record: %v", err)
	}
	rec := v.(serde.Record)
	refused("solo", rec)
	// Projection order is cursor order: url is the second cursor.
	if u, err := rec.Get("url"); err != nil || !strings.HasPrefix(u.(string), "http") {
		t.Errorf("solo: Get(url) = %v, %v", u, err)
	}
	rr.Close()
	if _, err := rec.Get("url"); err == nil {
		t.Error("solo: Get on a closed reader's record succeeded")
	}

	var member, shared sim.TaskStats
	sr, err := in.OpenShared(fs, []*mapred.JobConf{conf}, splits[0], []int{0}, hdfs.AnyNode, []*sim.TaskStats{&member}, &shared)
	if err != nil {
		t.Fatal(err)
	}
	_, vals, _, ok, err := sr.Next()
	if err != nil || !ok {
		t.Fatalf("shared: no record: %v", err)
	}
	rec = vals[0].(serde.Record)
	refused("shared", rec)
	if u, err := rec.Get("url"); err != nil || !strings.HasPrefix(u.(string), "http") {
		t.Errorf("shared: Get(url) = %v, %v", u, err)
	}
	sr.Close()
	if _, err := rec.Get("url"); err == nil {
		t.Error("shared: Get on a closed reader's record succeeded")
	}
}

// lazyBenchGen generates the rows lazyBenchData loads.
func lazyBenchGen() *workload.Crawl {
	return workload.NewCrawl(workload.CrawlOptions{Seed: 11, ContentBytes: 64})
}

// lazyBenchData loads n crawl rows — skip-list columns, DCSL metadata: the
// paper's Section 6.3 layout — into one split-directory.
func lazyBenchData(tb testing.TB, n int64) (*hdfs.FileSystem, mapred.Split) {
	tb.Helper()
	fs := hdfs.New(sim.SingleNode(), 1)
	gen := lazyBenchGen()
	opts := LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 256},
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 256}},
		SplitRecords: n,
	}
	w, err := NewWriter(fs, "/crawl", gen.Schema(), opts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	conf := &mapred.JobConf{InputPaths: []string{"/crawl"}}
	splits, err := (&InputFormat{}).Splits(fs, conf)
	if err != nil || len(splits) != 1 {
		tb.Fatalf("%d splits, %v", len(splits), err)
	}
	return fs, splits[0]
}

// lazyBenchCases are the access patterns the lazy path is sized on: the crawl
// job's own two (url on every row, metadata on 6 % of them), a dense integer
// column, and a dense column dropped a third of the way in.
var lazyBenchCases = []struct {
	name    string
	columns []string
	visit   func(i int, rec serde.Record) error
}{
	{"dense_string", []string{"url"}, func(_ int, rec serde.Record) error {
		_, err := rec.Get("url")
		return err
	}},
	{"dense_int", []string{"fetchTime"}, func(_ int, rec serde.Record) error {
		_, err := rec.Get("fetchTime")
		return err
	}},
	{"sparse_map_6pct", []string{"url", "metadata"}, func(i int, rec serde.Record) error {
		if i%16 != 5 {
			return nil
		}
		_, err := rec.Get("metadata")
		return err
	}},
	{"dense_then_abandon", []string{"url"}, func(i int, rec serde.Record) error {
		if i >= lazyBenchRows/3 {
			return nil
		}
		_, err := rec.Get("url")
		return err
	}},
}

const lazyBenchRows = 8192

// lazyBenchScan drains the split lazily under one access pattern.
func lazyBenchScan(tb testing.TB, fs *hdfs.FileSystem, split mapred.Split, columns []string, visit func(int, serde.Record) error, st *sim.TaskStats) {
	tb.Helper()
	conf := predConf(columns, true, nil)
	conf.InputPaths = []string{"/crawl"}
	rr, err := (&InputFormat{}).Open(fs, conf, split, hdfs.AnyNode, st)
	if err != nil {
		tb.Fatal(err)
	}
	defer rr.Close()
	for i := 0; ; i++ {
		_, v, ok, err := rr.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			if i != lazyBenchRows {
				tb.Fatalf("surfaced %d rows, want %d", i, lazyBenchRows)
			}
			return
		}
		if err := visit(i, v.(serde.Record)); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkLazyGet times a lazy scan per surfaced row under each pattern.
func BenchmarkLazyGet(b *testing.B) {
	fs, split := lazyBenchData(b, lazyBenchRows)
	for _, bc := range lazyBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lazyBenchScan(b, fs, split, bc.columns, bc.visit, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lazyBenchRows), "ns/row")
		})
	}
}

// TestLazyGetAllocGuard holds what the runs bought: a dense string column
// costs a chunk of boxes every 32 rows plus a handful per run (the arena
// string; 8192 rows are 36 runs), where reading it value by value cost two
// allocations a row and a run of compiler-boxed values one; and a sparsely read
// column is still read one value at a time — exactly the maps asked for are
// decoded, not one more.
func TestLazyGetAllocGuard(t *testing.T) {
	fs, split := lazyBenchData(t, lazyBenchRows)
	dense, sparse := lazyBenchCases[0], lazyBenchCases[2]
	lazyBenchScan(t, fs, split, dense.columns, dense.visit, nil) // warm the pools
	allocs := testing.AllocsPerRun(3, func() {
		lazyBenchScan(t, fs, split, dense.columns, dense.visit, nil)
	})
	const perRun, runs, perScan = 4, 40, 64
	race.AllocCeiling(t, fmt.Sprintf("a dense lazy string column over %d rows (one in 32 rows, %d a run, %d a scan)", lazyBenchRows, perRun, perScan),
		allocs, lazyBenchRows/32+perRun*runs+perScan)

	var st sim.TaskStats
	lazyBenchScan(t, fs, split, sparse.columns, sparse.visit, &st)
	// Each decoded map counts itself and its entries.
	gen := lazyBenchGen()
	meta := gen.Schema().FieldIndex("metadata")
	var maps, values int64
	for i := int64(5); i < lazyBenchRows; i += 16 {
		maps++
		values += 1 + int64(len(gen.Record(i).GetAt(meta).(map[string]any)))
	}
	if st.CPU.ValuesMaterialized != values || st.CPU.RecordsMaterialized != maps {
		t.Errorf("sparse map column: %d values and %d records materialized, want the %d and %d of the %d maps asked for",
			st.CPU.ValuesMaterialized, st.CPU.RecordsMaterialized, values, maps, maps)
	}
}
