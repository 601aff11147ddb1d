package core

import (
	"fmt"
	"runtime"
	"testing"

	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/vec"
	"colmr/internal/workload"
)

// Boxed values are drawn from chunks of their own and never from what a
// reader reuses underneath them: the pooled scratch vectors an eager batch and
// a lazy run decode into, the session's cached vectors every scan of a batch
// shares, the stream windows. Everything batch k handed out — eager records,
// lazy-run values, values served one at a time from a batch's vector — is kept
// while batches k+1… are drained, by the solo reader and by a shared scan,
// twice over one vector cache, and reads afterwards as it was loaded.
func TestBoxedValuesOutliveReusedStorage(t *testing.T) {
	const n = 3000 // a dozen eager batches; several runs a column
	fs := hdfs.New(sim.SingleNode(), 1)
	schema := loadSynthetic(t, fs, "/p", n, n)
	gen := workload.NewSynthetic(11)
	pred := scan.Le("int0", int32(6000)) // evaluated from the cached vector; str0 and map0 decode late
	cols := []string{"str0", "int0", "int1", "map0"}
	var want [][]any
	for i := int64(0); i < n; i++ {
		rec := gen.Record(i)
		if rec.GetAt(schema.FieldIndex("int0")).(int32) > 6000 {
			continue
		}
		row := make([]any, len(cols))
		for j, c := range cols {
			row[j] = rec.GetAt(schema.FieldIndex(c))
		}
		want = append(want, row)
	}
	cache := vec.New(64 << 20)
	conf := func(lazy bool) *mapred.JobConf {
		c := predConf(cols, lazy, pred)
		c.InputPaths = []string{"/p"}
		c.VecCache = cache
		return c
	}
	in := &InputFormat{}
	splits, err := in.Splits(fs, conf(false))
	if err != nil || len(splits) != 1 {
		t.Fatalf("%d splits, %v", len(splits), err)
	}
	// read keeps every column of one surfaced record, eager or lazy.
	read := func(ctx string, v any) []any {
		row := make([]any, len(cols))
		for j, c := range cols {
			x, err := v.(serde.Record).Get(c)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			row[j] = x
		}
		return row
	}
	kept := map[string][][]any{}
	for round := 0; round < 2; round++ { // the second round is served from the cache
		for _, lazy := range []bool{false, true} {
			ctx := fmt.Sprintf("solo lazy=%v round %d", lazy, round)
			rr, err := in.Open(fs, conf(lazy), splits[0], hdfs.AnyNode, nil)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, v, ok, err := rr.Next()
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if !ok {
					break
				}
				kept[ctx] = append(kept[ctx], read(ctx, v))
			}
			rr.Close()
		}
		confs := []*mapred.JobConf{conf(false), conf(true)}
		stats := []*sim.TaskStats{{}, {}}
		sr, err := in.OpenShared(fs, confs, splits[0], []int{0, 1}, hdfs.AnyNode, stats, &sim.TaskStats{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, vals, who, ok, err := sr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for i, m := range who {
				ctx := fmt.Sprintf("shared member %d round %d", m, round)
				kept[ctx] = append(kept[ctx], read(ctx, vals[i]))
			}
		}
		sr.Close()
	}
	if cache.Vectors() == 0 {
		t.Fatal("no scan admitted a vector to the cache")
	}
	drainEager(t, fs, "/p", nil) // churn the pools everything above drew from
	runtime.GC()
	if len(kept) != 8 {
		t.Fatalf("%d scans kept rows, want 8", len(kept))
	}
	for ctx, rows := range kept {
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", ctx, len(rows), len(want))
		}
		for i, row := range rows {
			for j, c := range cols {
				if ft := schema.Fields[schema.FieldIndex(c)].Type; !serde.ValuesEqual(ft, row[j], want[i][j]) {
					t.Fatalf("%s: row %d column %s reads %v after the scan moved on, loaded %v", ctx, i, c, row[j], want[i][j])
				}
			}
		}
	}
}

// A cursor pins the run it is serving and nothing older: when a short run
// follows a long one in the same slots, the long run's values past the short
// one's end are let go (a cursor is opened per split-directory, so a run never
// outlives its directory either).
func TestLazyRunReleasesEarlierRunsTail(t *testing.T) {
	// Runs double behind a column read on every row — 8, 16, … 128 — and the
	// directory's end cuts the next one to 300-256 = 44 rows.
	const n = 300
	fs := hdfs.New(sim.SingleNode(), 1)
	loadSynthetic(t, fs, "/p", n, n)
	conf := predConf([]string{"str0"}, true, nil)
	conf.InputPaths = []string{"/p"}
	in := &InputFormat{}
	splits, err := in.Splits(fs, conf)
	if err != nil || len(splits) != 1 {
		t.Fatalf("%d splits, %v", len(splits), err)
	}
	rr, err := in.Open(fs, conf, splits[0], hdfs.AnyNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	longest := 0
	for i := 0; i < n; i++ {
		_, v, ok, err := rr.Next()
		if err != nil || !ok {
			t.Fatalf("row %d: %v %v", i, ok, err)
		}
		if _, err := v.(serde.Record).Get("str0"); err != nil {
			t.Fatal(err)
		}
		c := rr.(*Reader).cursors[0]
		longest = max(longest, len(c.run))
		for j, x := range c.run[len(c.run):cap(c.run)] {
			if x != nil {
				t.Fatalf("row %d: the cursor serves a run of %d and still holds %v, %d past its end", i, len(c.run), x, j)
			}
		}
	}
	c := rr.(*Reader).cursors[0]
	if len(c.run) >= longest || len(c.run) == 0 {
		t.Fatalf("the last run holds %d values, the longest %d: no short run followed a long one", len(c.run), longest)
	}
}
