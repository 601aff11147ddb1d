package core

import (
	"fmt"
	"testing"

	"colmr/internal/catalog"
	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/race"
	"colmr/internal/scan"
	"colmr/internal/sim"
)

// TestStreamWindowReleasedOnFailedOpen: a split-directory whose third column
// file is truncated fails to open after two cursors were built, each holding
// a pooled stream window from parsing its header. Both readers hand the
// windows back as they fail — not the collector, some time later — and say
// what they always said.
func TestStreamWindowReleasedOnFailedOpen(t *testing.T) {
	fs := testFS(t, 1)
	loadDataset(t, fs, "/d", LoadOptions{}, 200)
	third := "/d/s0/" + crawlSchema.Fields[2].Name
	data, err := fs.ReadFile(third)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(third); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(third, data[:len(data)/2], hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}
	hr, err := fs.Open(third, hdfs.AnyNode)
	if err != nil {
		t.Fatal(err)
	}
	_, cause := colfile.NewReaderOpts(hr, crawlSchema.Fields[2].Type, colfile.ReaderOptions{}, nil)
	if cause == nil {
		t.Fatal("a column file cut in half still opens")
	}
	want := fmt.Sprintf("core: column %q: %v", crawlSchema.Fields[2].Name, cause)

	in := &InputFormat{}
	split := &Split{Dirs: []string{"/d/s0"}}
	conf := func() *mapred.JobConf { return &mapred.JobConf{InputPaths: []string{"/d"}} }
	held := colfile.WindowsInUse()

	var st sim.TaskStats
	if _, err := in.Open(fs, conf(), split, hdfs.AnyNode, &st); err == nil || err.Error() != want {
		t.Errorf("solo open: error %v, want %s", err, want)
	}
	if got := colfile.WindowsInUse(); got != held {
		t.Errorf("solo open: %d stream windows still out of the pool after the open failed", got-held)
	}

	confs := []*mapred.JobConf{conf(), conf()}
	var m0, m1, shared sim.TaskStats
	if _, err := in.OpenShared(fs, confs, split, []int{0, 1}, hdfs.AnyNode, []*sim.TaskStats{&m0, &m1}, &shared); err == nil || err.Error() != want {
		t.Errorf("shared open: error %v, want %s", err, want)
	}
	if got := colfile.WindowsInUse(); got != held {
		t.Errorf("shared open: %d stream windows still out of the pool after the open failed", got-held)
	}

	// The intact prefix of the directory still scans, and gives its windows
	// back on Close.
	rr, err := in.Open(fs, &mapred.JobConf{Scan: &scan.Spec{Columns: []string{"url", "fetchTime"}}}, split, hdfs.AnyNode, &st)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := rr.Next(); !ok || err != nil {
		t.Fatalf("first record of the intact columns: ok=%v, err=%v", ok, err)
	}
	if colfile.WindowsInUse() == held {
		t.Fatal("an open reader holds no stream window: the gauge measures nothing")
	}
	rr.Close()
	if got := colfile.WindowsInUse(); got != held {
		t.Errorf("%d stream windows still out of the pool after Close", got-held)
	}
}

// burstConfs is the scan server's refresh as the planner sees it, twice over
// (serve_burst admits two clients' bursts into one window): per burst three
// nested prefix scans, three narrow ranges and two aggregates over the
// clustered column.
func burstConfs(tb testing.TB, cat *catalog.Catalog) []*mapred.JobConf {
	tb.Helper()
	var confs []*mapred.JobConf
	add := func(b *ScanBuilder) {
		conf := b.Conf()
		conf.Catalog = cat
		confs = append(confs, &conf)
	}
	for burst := 0; burst < 2; burst++ {
		for k := 0; k < 3; k++ {
			add(ScanDataset("/m").Columns("s").Where(scan.Le("x", int64(250+10*k))).Lazy(true))
		}
		for k := 0; k < 3; k++ {
			lo := int64(97 + 311*k + 150*burst)
			add(ScanDataset("/m").Columns("s").Where(scan.Between("x", lo, lo+1)).Lazy(true))
		}
		for _, a := range []struct {
			agg  string
			pred scan.Predicate
		}{
			{"count,sum(y) group by y", scan.Le("x", int64(250))},
			{"count,min(y),max(y)", scan.Gt("x", int64(900))},
		} {
			agg, err := scan.ParseAggregate(a.agg)
			if err != nil {
				tb.Fatal(err)
			}
			add(ScanDataset("/m").Where(a.pred).Aggregate(agg))
		}
	}
	return confs
}

// catalogStates names the two states the benchmarks below run through: cold
// drops the dataset's entries before every iteration, warm keeps them.
var catalogStates = []struct {
	name string
	warm bool
}{{"cold", false}, {"warm", true}}

func burstFS(tb testing.TB) *hdfs.FileSystem {
	tb.Helper()
	fs := hdfs.New(sim.SingleNode(), 1)
	loadClustered(tb, fs, "/m", 3200, 16)
	return fs
}

// BenchmarkSharedSplits plans one batch of the serve_burst shape — 16 members
// over 16 split-directories — through a catalog that has seen nothing (what
// every batch paid before there was one: a schema parse per member per
// directory, a footer parse per consultation) and through a session's.
func BenchmarkSharedSplits(b *testing.B) {
	fs := burstFS(b)
	in := &InputFormat{}
	for _, state := range catalogStates {
		warm := state.warm
		b.Run(state.name, func(b *testing.B) {
			cat := catalog.New(fs)
			confs := burstConfs(b, cat)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					cat.Invalidate("/m")
				}
				splits, _, err := in.SharedSplits(fs, confs)
				if err != nil || len(splits) == 0 {
					b.Fatalf("%d splits, %v", len(splits), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/plan")
		})
	}
}

// BenchmarkOpenDir opens and closes a reader over one split-directory — the
// schema lookup, the file tier's footer consultation, three cursors — as the
// first task of a cold session and as every task after it.
func BenchmarkOpenDir(b *testing.B) {
	fs := burstFS(b)
	in := &InputFormat{}
	split := &Split{Dirs: []string{"/m/s3"}}
	for _, state := range catalogStates {
		warm := state.warm
		b.Run(state.name, func(b *testing.B) {
			cat := catalog.New(fs)
			conf := ScanDataset("/m").Where(scan.Le("x", int64(250))).Conf()
			conf.Catalog = cat
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					cat.Invalidate("/m")
				}
				rr, err := in.Open(fs, &conf, split, hdfs.AnyNode, nil)
				if err != nil {
					b.Fatal(err)
				}
				rr.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/open")
		})
	}
}

// TestPlanCatalogAllocGuard holds what the catalog bought the planner and the
// task opener. Planning the 16 × 16 batch through a warm catalog allocates
// what admission and split assembly allocate — per-member plans, estimates,
// union predicates — and nothing per schema field or footer entry: cold, the
// same plan parsed 16 schemas and 16 footers, and before the catalog 256 and
// several hundred. Opening a directory warm allocates its cursors.
func TestPlanCatalogAllocGuard(t *testing.T) {
	fs := burstFS(t)
	in := &InputFormat{}
	cat := catalog.New(fs)
	confs := burstConfs(t, cat)
	plan := func() {
		if _, _, err := in.SharedSplits(fs, confs); err != nil {
			t.Fatal(err)
		}
	}
	plan()
	entries := cat.Len()
	if entries != 2*16 {
		t.Errorf("%d entries after planning 16 directories on one filter column, want a schema and a footer each", entries)
	}
	warm := testing.AllocsPerRun(5, plan)
	cold := testing.AllocsPerRun(5, func() {
		cat.Invalidate("/m")
		plan()
	})
	t.Logf("planning 16 members x 16 directories: %.0f allocations warm, %.0f cold", warm, cold)
	race.AllocCeiling(t, "planning 16 members over 16 directories through a warm catalog", warm, 4500)
	if warm >= cold {
		t.Errorf("a warm plan allocates %.0f objects, a cold one %.0f: the catalog saved nothing", warm, cold)
	}

	conf := ScanDataset("/m").Where(scan.Le("x", int64(250))).Conf()
	conf.Catalog = cat
	open := func() {
		rr, err := in.Open(fs, &conf, &Split{Dirs: []string{"/m/s3"}}, hdfs.AnyNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		rr.Close()
	}
	open()
	race.AllocCeiling(t, "opening a three-column split-directory through a warm catalog", testing.AllocsPerRun(20, open), 120)
}
