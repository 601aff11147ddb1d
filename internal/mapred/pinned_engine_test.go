package mapred_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/formats/txt"
	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// The engine pinned: every way a job reaches a map task — TXT, SEQ and
// RCFile readers, CIF eager, lazy and aggregating scans, a shuffle with a
// combiner, selectivity-sized tasks over elided directories, a dataset listed
// twice, ingest's compaction — run alone and as a one-job batch, one mixed
// batch, the same batch through a caching session, and a corrupt column file,
// compared with literals recorded before Run and RunBatch became one engine.

// pinFS is a four-node cluster with small blocks, so row formats split.
func pinFS() *hdfs.FileSystem {
	cfg := sim.DefaultCluster()
	cfg.Nodes = 4
	cfg.BlockSize = 1 << 13
	cfg.TransferUnit = 1 << 12
	fs := hdfs.New(cfg, 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	return fs
}

var pinSchema = serde.RecordOf("P",
	serde.Field{Name: "x", Type: serde.Long()},
	serde.Field{Name: "y", Type: serde.Int()},
	serde.Field{Name: "s", Type: serde.String()})

func pinRecord(i, n int64) *serde.GenericRecord {
	rec := serde.NewRecord(pinSchema)
	rec.SetAt(0, i*1000/n)
	rec.SetAt(1, int32(i%10))
	rec.SetAt(2, fmt.Sprintf("s%03d-%s", i%97, strings.Repeat("v", int(i%13))))
	return rec
}

// loadPinned writes the same 1 200 records as TXT, SEQ, RCFile and two CIF
// datasets (x clustered over [0, 1000), so zone maps and elision prune).
func loadPinned(t *testing.T, fs *hdfs.FileSystem) {
	t.Helper()
	const n = 1200
	for _, cif := range []string{"/pin/cif", "/pin/cif2"} {
		w, err := core.NewWriter(fs, cif, pinSchema, core.LoadOptions{
			Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20},
			SplitRecords: 150,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			if err := w.Append(pinRecord(i, n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	create := func(p string) *hdfs.FileWriter {
		f, err := fs.Create(p, hdfs.AnyNode)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := create("/pin/data.txt")
	tw := txt.NewWriter(f)
	for i := int64(0); i < n; i++ {
		if err := tw.Write(pinRecord(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	f = create("/pin/data.seq")
	sw, err := seq.NewWriter(f, "/pin/data.seq", pinSchema, seq.Options{Mode: seq.ModeBlock, Codec: "lzo", BlockBytes: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := sw.Append(pinRecord(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	sw.Close()
	f.Close()
	f = create("/pin/data.rc")
	rw, err := rcfile.NewWriter(f, "/pin/data.rc", pinSchema, rcfile.Options{Codec: "zlib", RowGroupBytes: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := rw.Append(pinRecord(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	rw.Close()
	f.Close()
}

// pinMapper emits (x mod 10, s) for every record carrying both.
var pinMapper = mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
	rec := v.(serde.Record)
	x, err := rec.Get("x")
	if err != nil {
		return err
	}
	s, err := rec.Get("s")
	if err != nil {
		return err
	}
	return emit(x.(int64)%10, s)
})

var pinCount = mapred.ReducerFunc(func(k any, vs []any, emit mapred.Emit) error {
	var n int64
	for _, v := range vs {
		n += v.(int64)
	}
	return emit(k, n)
})

func pinAgg(t *testing.T, src string) *scan.Aggregate {
	t.Helper()
	a, err := scan.ParseAggregate(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pinJobs returns the single-job cases; each builds a fresh job writing its
// output (if any) under out.
func pinJobs(t *testing.T) []struct {
	name string
	job  func(out string) *mapred.Job
} {
	cols := func(in mapred.InputFormat, path string) func(string) *mapred.Job {
		return func(string) *mapred.Job {
			j := core.ScanDataset(path).Columns("x", "s").Job(pinMapper)
			j.Input = in
			return j
		}
	}
	return []struct {
		name string
		job  func(out string) *mapred.Job
	}{
		{"txt", cols(&txt.InputFormat{Schema: pinSchema}, "/pin/data.txt")},
		{"seq", cols(&seq.InputFormat{}, "/pin/data.seq")},
		{"rcfile", cols(&rcfile.InputFormat{}, "/pin/data.rc")},
		{"cif_eager", func(string) *mapred.Job {
			return core.ScanDataset("/pin/cif").Columns("x", "s").Where(scan.Le("x", 400)).Job(pinMapper)
		}},
		{"cif_lazy", func(string) *mapred.Job {
			return core.ScanDataset("/pin/cif").Columns("x", "s").Where(scan.Gt("x", 600)).Lazy(true).Job(pinMapper)
		}},
		{"cif_agg_grouped", func(string) *mapred.Job {
			return core.ScanDataset("/pin/cif").Where(scan.Le("x", 500)).Aggregate(pinAgg(t, "count, sum(x), max(s) group by y")).AggJob()
		}},
		{"cif_agg_shortcut", func(string) *mapred.Job {
			return core.ScanDataset("/pin/cif").Where(scan.Le("x", 700)).Aggregate(pinAgg(t, "count, min(x), max(x)")).AggJob()
		}},
		{"cif_reduce_combine", func(out string) *mapred.Job {
			j := core.ScanDataset("/pin/cif").Columns("y", "s").Where(scan.Gt("x", 250)).
				Job(mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
					s, err := v.(serde.Record).Get("s")
					if err != nil {
						return err
					}
					return emit(s.(string)[:3], int64(1))
				}))
			j.Reducer, j.Combiner = pinCount, pinCount
			j.Conf.NumReducers, j.Conf.OutputPath, j.Output = 3, out, mapred.TextOutput{}
			return j
		}},
		{"cif_auto_dirs", func(string) *mapred.Job {
			return core.ScanDataset("/pin/cif").Columns("x", "s").
				Where(scan.And(scan.Or(scan.Le("x", 200), scan.Gt("x", 750)), scan.Eq("y", 5))).
				DirsPerSplit(core.AutoDirsPerSplit).Job(pinMapper)
		}},
		{"cif_dup_paths", func(string) *mapred.Job {
			return core.ScanDataset("/pin/cif", "/pin/cif").Columns("x", "s").Where(scan.Le("x", 300)).Job(pinMapper)
		}},
	}
}

// pinMixed is the mixed batch: two overlapping CIF jobs and one disjoint
// from both over one dataset, an RCFile job, a CIF job alone over another
// dataset, and a CIF job over the first dataset sized two directories a task
// (so it plans apart from the others: a group of one). No two of its tasks
// read one file, so a caching session's hits fall on the same tasks however
// the workers interleave.
func pinMixed() []*mapred.Job {
	rc := core.ScanDataset("/pin/data.rc").Columns("x", "s").Job(pinMapper)
	rc.Input = &rcfile.InputFormat{}
	return []*mapred.Job{
		core.ScanDataset("/pin/cif").Columns("x", "s").Where(scan.Le("x", 400)).Job(pinMapper),
		core.ScanDataset("/pin/cif").Columns("x", "s").Where(scan.Le("x", 450)).Lazy(true).Job(pinMapper),
		core.ScanDataset("/pin/cif").Columns("x", "s").Where(scan.Gt("x", 850)).Job(pinMapper),
		rc,
		core.ScanDataset("/pin/cif2").Columns("x", "s").Where(scan.Le("x", 100)).Job(pinMapper),
		core.ScanDataset("/pin/cif").Columns("x", "s").Where(scan.Le("x", 420)).DirsPerSplit(2).Job(pinMapper),
	}
}

// nonzero renders v's non-zero leaves as path=value, so a literal stays
// short and any moved counter shows by name.
func nonzero(b *strings.Builder, prefix string, v reflect.Value) {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			nonzero(b, prefix+v.Type().Field(i).Name+".", v.Field(i))
		}
		return
	}
	if !v.IsZero() {
		fmt.Fprintf(b, "%s=%v ", strings.TrimSuffix(prefix, "."), v)
	}
}

func renderStats(st sim.TaskStats) string {
	var b strings.Builder
	nonzero(&b, "", reflect.ValueOf(st))
	return strings.TrimSpace(b.String())
}

// renderResult renders a Result: each map task's split and node (its
// counters folded into one digest), then every job-level field in full.
func renderResult(r *mapred.Result) string {
	var b strings.Builder
	h := sha256.New()
	for _, mt := range r.MapTasks {
		fmt.Fprintf(&b, "%s@%d ", mt.Split, mt.Node)
		fmt.Fprintln(h, renderStats(mt.Stats))
	}
	fmt.Fprintf(&b, "tasks#%x\n", h.Sum(nil)[:6])
	fmt.Fprintf(&b, "total: %s\n", renderStats(r.Total))
	fmt.Fprintf(&b, "reduce: %s\n", renderStats(r.ReduceStats))
	var plan strings.Builder
	nonzero(&plan, "", reflect.ValueOf(r.Plan))
	fmt.Fprintf(&b, "groups=%d out=%d plan: %s", r.ReduceGroups, r.OutputRecords, strings.TrimSpace(plan.String()))
	if r.Agg != nil {
		fmt.Fprintf(&b, "\nagg=%v", r.Agg.Rows())
	}
	return b.String()
}

func renderBatch(br *mapred.BatchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "shared: %s\ntasks=%d shared=%d groups=%d declined=%d", renderStats(br.Shared), br.Tasks, br.SharedTasks, br.Groups, br.Declined)
	for i, r := range br.Results {
		fmt.Fprintf(&b, "\n[%d] %s", i, renderResult(r))
	}
	return b.String()
}

// renderOutput appends a job's output files, if it wrote any.
func renderOutput(t *testing.T, fs *hdfs.FileSystem, job *mapred.Job) string {
	if job.Conf.OutputPath == "" {
		return ""
	}
	var b strings.Builder
	for p := 0; p < job.Conf.NumReducers; p++ {
		data, err := fs.ReadFile(fmt.Sprintf("%s/part-%05d", job.Conf.OutputPath, p))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "\n[%d]%q", p, data)
	}
	return b.String()
}

func checkPinned(t *testing.T, name, got string) {
	t.Helper()
	want, ok := pinnedEngine[name]
	if !ok || got != want {
		t.Errorf("%s moved:\n got %s\nwant %s\nliteral: %q: %q,", name, got, want, name, got)
	}
}

func TestEnginePinned(t *testing.T) {
	fs := pinFS()
	loadPinned(t, fs)
	for _, tc := range pinJobs(t) {
		job := tc.job("/pin/out/run-" + tc.name)
		res, err := mapred.Run(fs, job)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := renderResult(res) + renderOutput(t, fs, job)
		checkPinned(t, tc.name, got)

		job = tc.job("/pin/out/batch-" + tc.name)
		br, err := mapred.RunBatch(fs, job)
		if err != nil {
			t.Fatalf("%s as a batch: %v", tc.name, err)
		}
		if br.Tasks != 0 || br.SharedTasks != 0 || br.Groups != 0 || !reflect.DeepEqual(br.Shared, sim.TaskStats{}) {
			t.Errorf("%s as a batch of one booked shared work: %s", tc.name, renderBatch(br))
		}
		if batched := renderResult(br.Results[0]) + renderOutput(t, fs, job); batched != got {
			t.Errorf("%s: a one-job batch differs from Run:\n got %s\nwant %s", tc.name, batched, got)
		}
	}

	br, err := mapred.RunBatch(fs, pinMixed()...)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "mixed_batch", renderBatch(br))

	// Through a caching session, twice: groups of one run first, so the job
	// sized two directories a task warms what the shared group then reads,
	// and the second round reads warm throughout.
	session := mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: 1 << 20})
	for round := 1; round <= 2; round++ {
		br, err := session.RunBatch(pinMixed()...)
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("session_round%d", round), renderBatch(br))
	}
}

// TestEnginePinnedIngestCompaction pins a compaction, the one job that runs
// through a fixed-split input format, on the plain engine and in a session.
func TestEnginePinnedIngestCompaction(t *testing.T) {
	for _, withSession := range []bool{false, true} {
		fs := pinFS()
		s := workload.NewArrivalStream(workload.ArrivalOptions{
			Crawl:           workload.CrawlOptions{Seed: 5, ContentBytes: 100, Inlinks: 2},
			Seed:            5,
			RatePerSec:      50,
			RecrawlFraction: 0.3,
		})
		opts := ingest.Options{
			Dataset:         "/pin/live",
			Schema:          s.Crawl().Schema(),
			Key:             "url",
			TimeColumn:      "fetchTime",
			BucketMillis:    4000,
			MemtableRecords: 64,
			Load: core.LoadOptions{
				SplitRecords: 64,
				PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL}},
			},
		}
		name := "ingest_compaction"
		if withSession {
			opts.Session = mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: 1 << 20})
			name += "_session"
		}
		ing, err := ingest.New(fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := ing.Append(s.Next().Rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ing.Compact(); err != nil {
			t.Fatal(err)
		}
		checkPinned(t, name, fmt.Sprintf("gen=%d %s", ing.Generation(), renderStats(*ing.Stats())))
	}
}

// TestEnginePinnedCorruptColumn pins Run's error over a column file whose
// data was overwritten behind an intact footer.
func TestEnginePinnedCorruptColumn(t *testing.T) {
	fs := pinFS()
	loadPinned(t, fs)
	const victim = "/pin/cif/s2/s"
	data, err := fs.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data)/2; i++ {
		data[i] = 0xff
	}
	if err := fs.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(victim, data, hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}
	job := core.ScanDataset("/pin/cif").Columns("x", "s").Job(pinMapper)
	_, err = mapred.Run(fs, job)
	if err == nil {
		t.Fatal("a corrupt column file scanned without an error")
	}
	checkPinned(t, "corrupt_column", err.Error())
	_, err = mapred.RunBatch(fs, core.ScanDataset("/pin/cif").Columns("x", "s").Job(pinMapper))
	if err == nil {
		t.Fatal("a corrupt column file scanned in a batch without an error")
	}
	checkPinned(t, "corrupt_column_batch", err.Error())
}

// Recorded before Run and RunBatch became one engine.
var pinnedEngine = map[string]string{
	"txt":                       "/pin/data.txt[0:8192]@1 /pin/data.txt[8192:16384]@2 /pin/data.txt[16384:21450]@3 tasks#d2ec7f2d3b9f\ntotal: IO.LocalBytes=47966 IO.LogicalBytes=39776 IO.Opens=3 CPU.TextBytes=21450 CPU.RecordsMaterialized=1200 CPU.ValuesMaterialized=3600 RecordsProcessed=1200 OutputBytes=23982 OutputRecords=1200\nreduce: \ngroups=0 out=1200 plan: ",
	"seq":                       "/pin/data.seq[0:8192]@1 /pin/data.seq[8192:13339]@0 tasks#32e1d0d04f50\ntotal: IO.LocalBytes=18486 IO.RemoteBytes=8192 IO.LogicalBytes=31825 IO.Opens=2 CPU.IntBytes=3523 CPU.StringBytes=14382 CPU.LzoBytes=19105 CPU.RecordsMaterialized=1200 CPU.ValuesMaterialized=4800 RecordsProcessed=1200 OutputBytes=23982 OutputRecords=1200\nreduce: \ngroups=0 out=1200 plan: ",
	"rcfile":                    "/pin/data.rc[0:8192]@0 /pin/data.rc[8192:9122]@2 tasks#706fa6ee53c4\ntotal: IO.LocalBytes=10052 IO.RemoteBytes=4096 IO.LogicalBytes=10091 IO.Seeks=1 IO.Opens=2 CPU.IntBytes=5986 CPU.StringBytes=14382 CPU.ZlibBytes=16705 CPU.RecordsMaterialized=1200 CPU.ValuesMaterialized=2400 RecordsProcessed=1200 OutputBytes=23982 OutputRecords=1200\nreduce: \ngroups=0 out=1200 plan: ",
	"cif_eager":                 "/pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 tasks#525f18f1fd11\ntotal: IO.LocalBytes=17001 IO.LogicalBytes=10160 IO.InterleavedBytes=2542 IO.Opens=8 CPU.StringBytes=5778 CPU.SkippedBytes=448 CPU.RecordsMaterialized=482 CPU.ValuesMaterialized=964 CPU.VecBytes=903 CPU.VecValues=490 RecordsProcessed=482 OutputBytes=9634 OutputRecords=482 GroupsPruned=6 RecordsPruned=710 RecordsFiltered=8 SplitsPruned=4 VecBatches=26 RowsVectorized=490\nreduce: \ngroups=0 out=482 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true",
	"cif_lazy":                  "/pin/cif/s4@0 /pin/cif/s5@2 /pin/cif/s6@1 /pin/cif/s7@3 tasks#9467d1769ccf\ntotal: IO.LocalBytes=17122 IO.LogicalBytes=10241 IO.InterleavedBytes=2562 IO.Opens=8 CPU.StringBytes=5739 CPU.SkippedBytes=497 CPU.RecordsMaterialized=478 CPU.ValuesMaterialized=956 CPU.VecBytes=960 CPU.VecValues=480 RecordsProcessed=478 OutputBytes=9563 OutputRecords=478 GroupsPruned=6 RecordsPruned=720 RecordsFiltered=2 SplitsPruned=4 VecBatches=26 RowsVectorized=480\nreduce: \ngroups=0 out=478 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true",
	"cif_agg_grouped":           "/pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 /pin/cif/s4@3 tasks#2797d401422e\ntotal: IO.LocalBytes=23896 IO.LogicalBytes=14620 IO.InterleavedBytes=6397 IO.Opens=15 CPU.SkippedBytes=852 CPU.VecBytes=9205 CPU.VecValues=1860 GroupsPruned=7 RecordsPruned=580 RecordsFiltered=18 SplitsPruned=3 VecBatches=33 RowsVectorized=620 AggBatches=33 RowsAggregated=602\nreduce: \ngroups=0 out=0 plan: SplitsTotal=8 SplitsPruned=3 FilesChecked=8 RecordsPruned=450 Columns=[x] Vectorized=true\nagg=[{0 [61 15230 s096-vvvv]} {1 [61 15270 s096-vvvvvvvvv]} {2 [60 14830 s095-vvvvvvvvvv]} {3 [60 14870 s096-vvvvvvvvvvv]} {4 [60 14930 s096-vvv]} {5 [60 14970 s095-vvvv]} {6 [60 15030 s096-vvvvv]} {7 [60 15070 s096-vvvvvvvvvv]} {8 [60 15130 s094-vv]} {9 [60 15170 s095-vvv]}]",
	"cif_agg_shortcut":          "/pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 /pin/cif/s4@3 /pin/cif/s5@2 tasks#485f905a5312\ntotal: IO.LocalBytes=4394 IO.LogicalBytes=3109 IO.Opens=6 CPU.SkippedBytes=44 CPU.VecBytes=40 CPU.VecValues=20 GroupsPruned=3 RecordsPruned=350 RecordsFiltered=8 SplitsPruned=2 VecBatches=1 RowsVectorized=20 AggBatches=1 RowsAggregated=842 AggGroupsShortcut=44\nreduce: \ngroups=0 out=0 plan: SplitsTotal=8 SplitsPruned=2 FilesChecked=8 RecordsPruned=300 Columns=[x] Vectorized=true\nagg=[{<nil> [842 0 700]}]",
	"cif_reduce_combine":        "/pin/cif/s2@0 /pin/cif/s3@1 /pin/cif/s4@3 /pin/cif/s5@2 /pin/cif/s6@0 /pin/cif/s7@1 tasks#da7338be7d9a\ntotal: IO.LocalBytes=28838 IO.LogicalBytes=17646 IO.InterleavedBytes=7721 IO.Opens=18 CPU.IntBytes=898 CPU.StringBytes=10773 CPU.SkippedBytes=1245 CPU.RecordsMaterialized=898 CPU.ValuesMaterialized=1796 CPU.VecBytes=1800 CPU.VecValues=900 RecordsProcessed=898 OutputBytes=720 OutputRecords=60 RecordsPruned=300 RecordsFiltered=2 SplitsPruned=2 VecBatches=48 RowsVectorized=900\nreduce: IO.BytesWritten=71\ngroups=10 out=10 plan: SplitsTotal=8 SplitsPruned=2 FilesChecked=8 RecordsPruned=300 Columns=[x] Vectorized=true\n[0]\"s03\\t96\\ns04\\t90\\ns08\\t90\\n\"\n[1]\"s01\\t99\\ns02\\t100\\ns07\\t90\\n\"\n[2]\"s00\\t90\\ns05\\t90\\ns06\\t90\\ns09\\t63\\n\"",
	"cif_auto_dirs":             "/pin/cif/s0,/pin/cif/s1,/pin/cif/s6,/pin/cif/s7@0 tasks#adbb6c729018\ntotal: IO.LocalBytes=19120 IO.LogicalBytes=11686 IO.InterleavedBytes=5113 IO.Opens=12 CPU.StringBytes=644 CPU.SkippedBytes=6858 CPU.RecordsMaterialized=54 CPU.ValuesMaterialized=108 CPU.VecBytes=1573 CPU.VecValues=1100 RecordsProcessed=54 OutputBytes=1076 OutputRecords=54 GroupsPruned=3 RecordsPruned=650 RecordsFiltered=496 SplitsPruned=4 VecBatches=29 RowsVectorized=550\nreduce: \ngroups=0 out=54 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=12 RecordsPruned=600 Columns=[x y] Vectorized=true",
	"cif_dup_paths":             "/pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s0@0 /pin/cif/s1@3 /pin/cif/s2@2 tasks#f567c64661e3\ntotal: IO.LocalBytes=25438 IO.LogicalBytes=15178 IO.InterleavedBytes=3798 IO.Opens=12 CPU.StringBytes=8666 CPU.SkippedBytes=680 CPU.RecordsMaterialized=724 CPU.ValuesMaterialized=1448 CPU.VecBytes=1366 CPU.VecValues=760 RecordsProcessed=724 OutputBytes=14458 OutputRecords=724 GroupsPruned=8 RecordsPruned=1640 RecordsFiltered=36 SplitsPruned=10 VecBatches=40 RowsVectorized=760\nreduce: \ngroups=0 out=724 plan: SplitsTotal=16 SplitsPruned=10 FilesChecked=16 RecordsPruned=1500 Columns=[x] Vectorized=true",
	"mixed_batch":               "shared: IO.LocalBytes=25576 IO.LogicalBytes=15281 IO.InterleavedBytes=3823 IO.Opens=12 CPU.StringBytes=2762 CPU.SkippedBytes=723 CPU.RecordsMaterialized=1202 CPU.ValuesMaterialized=2404 CPU.VecBytes=7245 CPU.VecValues=1220 GroupsPruned=9 RecordsPruned=170 SharedReads=8 BytesSaved=17001 VecBatches=39 RowsVectorized=730\ntasks=6 shared=4 groups=1 declined=0\n[0] /pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 tasks#f49089a9f9b8\ntotal: RecordsProcessed=482 OutputBytes=9634 OutputRecords=482 GroupsPruned=6 RecordsPruned=710 RecordsFiltered=8 SplitsPruned=4\nreduce: \ngroups=0 out=482 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true\n[1] /pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 tasks#a9ee7fd7d19f\ntotal: RecordsProcessed=542 OutputBytes=10822 OutputRecords=542 GroupsPruned=3 RecordsPruned=650 RecordsFiltered=8 SplitsPruned=4\nreduce: \ngroups=0 out=542 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true\n[2] /pin/cif/s6@1 /pin/cif/s7@3 tasks#d3c59beae8b6\ntotal: RecordsProcessed=178 OutputBytes=3562 OutputRecords=178 GroupsPruned=6 RecordsPruned=1020 RecordsFiltered=2 SplitsPruned=6\nreduce: \ngroups=0 out=178 plan: SplitsTotal=8 SplitsPruned=6 FilesChecked=8 RecordsPruned=900 Columns=[x] Vectorized=true\n[3] /pin/data.rc[0:8192]@0 /pin/data.rc[8192:9122]@2 tasks#706fa6ee53c4\ntotal: IO.LocalBytes=10052 IO.RemoteBytes=4096 IO.LogicalBytes=10091 IO.Seeks=1 IO.Opens=2 CPU.IntBytes=5986 CPU.StringBytes=14382 CPU.ZlibBytes=16705 CPU.RecordsMaterialized=1200 CPU.ValuesMaterialized=2400 RecordsProcessed=1200 OutputBytes=23982 OutputRecords=1200\nreduce: \ngroups=0 out=1200 plan: \n[4] /pin/cif2/s0@0 tasks#f5e1cad11663\ntotal: IO.LocalBytes=4140 IO.LogicalBytes=2464 IO.InterleavedBytes=617 IO.Opens=2 CPU.StringBytes=1444 CPU.SkippedBytes=124 CPU.RecordsMaterialized=122 CPU.ValuesMaterialized=244 CPU.VecBytes=203 CPU.VecValues=140 RecordsProcessed=122 OutputBytes=2420 OutputRecords=122 GroupsPruned=1 RecordsPruned=1060 RecordsFiltered=18 SplitsPruned=7 VecBatches=7 RowsVectorized=140\nreduce: \ngroups=0 out=122 plan: SplitsTotal=8 SplitsPruned=7 FilesChecked=8 RecordsPruned=1050 Columns=[x] Vectorized=true\n[5] /pin/cif/s0,/pin/cif/s1@0 /pin/cif/s2,/pin/cif/s3@2 tasks#a794d99249a3\ntotal: IO.LocalBytes=17001 IO.LogicalBytes=10160 IO.InterleavedBytes=2542 IO.Opens=8 CPU.StringBytes=6066 CPU.SkippedBytes=464 CPU.RecordsMaterialized=506 CPU.ValuesMaterialized=1012 CPU.VecBytes=943 CPU.VecValues=510 RecordsProcessed=506 OutputBytes=10114 OutputRecords=506 GroupsPruned=5 RecordsPruned=690 RecordsFiltered=4 SplitsPruned=4 VecBatches=27 RowsVectorized=510\nreduce: \ngroups=0 out=506 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true",
	"session_round1":            "shared: IO.LocalBytes=8575 IO.LogicalBytes=15281 IO.InterleavedBytes=3823 IO.Opens=12 CPU.StringBytes=2762 CPU.SkippedBytes=723 CPU.RecordsMaterialized=1202 CPU.ValuesMaterialized=2404 CPU.VecBytes=7245 CPU.VecValues=1220 GroupsPruned=9 RecordsPruned=170 SharedReads=8 CacheHits=8 BytesFromCache=17001 VecBatches=39 RowsVectorized=730\ntasks=6 shared=4 groups=1 declined=0\n[0] /pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 tasks#f49089a9f9b8\ntotal: RecordsProcessed=482 OutputBytes=9634 OutputRecords=482 GroupsPruned=6 RecordsPruned=710 RecordsFiltered=8 SplitsPruned=4\nreduce: \ngroups=0 out=482 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true\n[1] /pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 tasks#a9ee7fd7d19f\ntotal: RecordsProcessed=542 OutputBytes=10822 OutputRecords=542 GroupsPruned=3 RecordsPruned=650 RecordsFiltered=8 SplitsPruned=4\nreduce: \ngroups=0 out=542 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true\n[2] /pin/cif/s6@1 /pin/cif/s7@3 tasks#d3c59beae8b6\ntotal: RecordsProcessed=178 OutputBytes=3562 OutputRecords=178 GroupsPruned=6 RecordsPruned=1020 RecordsFiltered=2 SplitsPruned=6\nreduce: \ngroups=0 out=178 plan: SplitsTotal=8 SplitsPruned=6 FilesChecked=8 RecordsPruned=900 Columns=[x] Vectorized=true\n[3] /pin/data.rc[0:8192]@0 /pin/data.rc[8192:9122]@2 tasks#706fa6ee53c4\ntotal: IO.LocalBytes=10052 IO.RemoteBytes=4096 IO.LogicalBytes=10091 IO.Seeks=1 IO.Opens=2 CPU.IntBytes=5986 CPU.StringBytes=14382 CPU.ZlibBytes=16705 CPU.RecordsMaterialized=1200 CPU.ValuesMaterialized=2400 RecordsProcessed=1200 OutputBytes=23982 OutputRecords=1200\nreduce: \ngroups=0 out=1200 plan: \n[4] /pin/cif2/s0@0 tasks#f5e1cad11663\ntotal: IO.LocalBytes=4140 IO.LogicalBytes=2464 IO.InterleavedBytes=617 IO.Opens=2 CPU.StringBytes=1444 CPU.SkippedBytes=124 CPU.RecordsMaterialized=122 CPU.ValuesMaterialized=244 CPU.VecBytes=203 CPU.VecValues=140 RecordsProcessed=122 OutputBytes=2420 OutputRecords=122 GroupsPruned=1 RecordsPruned=1060 RecordsFiltered=18 SplitsPruned=7 VecBatches=7 RowsVectorized=140\nreduce: \ngroups=0 out=122 plan: SplitsTotal=8 SplitsPruned=7 FilesChecked=8 RecordsPruned=1050 Columns=[x] Vectorized=true\n[5] /pin/cif/s0,/pin/cif/s1@0 /pin/cif/s2,/pin/cif/s3@2 tasks#a794d99249a3\ntotal: IO.LocalBytes=17001 IO.LogicalBytes=10160 IO.InterleavedBytes=2542 IO.Opens=8 CPU.StringBytes=6066 CPU.SkippedBytes=464 CPU.RecordsMaterialized=506 CPU.ValuesMaterialized=1012 CPU.VecBytes=943 CPU.VecValues=510 RecordsProcessed=506 OutputBytes=10114 OutputRecords=506 GroupsPruned=5 RecordsPruned=690 RecordsFiltered=4 SplitsPruned=4 VecBatches=27 RowsVectorized=510\nreduce: \ngroups=0 out=506 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true",
	"session_round2":            "shared: IO.LogicalBytes=15281 IO.InterleavedBytes=3823 IO.Opens=12 CPU.StringBytes=2762 CPU.SkippedBytes=723 CPU.RecordsMaterialized=1202 CPU.ValuesMaterialized=2404 CPU.VecBytes=7245 CPU.VecValues=1220 GroupsPruned=9 RecordsPruned=170 SharedReads=8 CacheHits=12 BytesFromCache=25576 VecBatches=39 RowsVectorized=730\ntasks=6 shared=4 groups=1 declined=0\n[0] /pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 tasks#f49089a9f9b8\ntotal: RecordsProcessed=482 OutputBytes=9634 OutputRecords=482 GroupsPruned=6 RecordsPruned=710 RecordsFiltered=8 SplitsPruned=4\nreduce: \ngroups=0 out=482 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true\n[1] /pin/cif/s0@0 /pin/cif/s1@1 /pin/cif/s2@2 /pin/cif/s3@0 tasks#a9ee7fd7d19f\ntotal: RecordsProcessed=542 OutputBytes=10822 OutputRecords=542 GroupsPruned=3 RecordsPruned=650 RecordsFiltered=8 SplitsPruned=4\nreduce: \ngroups=0 out=542 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true\n[2] /pin/cif/s6@1 /pin/cif/s7@3 tasks#d3c59beae8b6\ntotal: RecordsProcessed=178 OutputBytes=3562 OutputRecords=178 GroupsPruned=6 RecordsPruned=1020 RecordsFiltered=2 SplitsPruned=6\nreduce: \ngroups=0 out=178 plan: SplitsTotal=8 SplitsPruned=6 FilesChecked=8 RecordsPruned=900 Columns=[x] Vectorized=true\n[3] /pin/data.rc[0:8192]@0 /pin/data.rc[8192:9122]@2 tasks#706fa6ee53c4\ntotal: IO.LocalBytes=10052 IO.RemoteBytes=4096 IO.LogicalBytes=10091 IO.Seeks=1 IO.Opens=2 CPU.IntBytes=5986 CPU.StringBytes=14382 CPU.ZlibBytes=16705 CPU.RecordsMaterialized=1200 CPU.ValuesMaterialized=2400 RecordsProcessed=1200 OutputBytes=23982 OutputRecords=1200\nreduce: \ngroups=0 out=1200 plan: \n[4] /pin/cif2/s0@0 tasks#754a48bbce4f\ntotal: IO.LogicalBytes=2464 IO.InterleavedBytes=617 IO.Opens=2 CPU.StringBytes=1444 CPU.SkippedBytes=124 CPU.RecordsMaterialized=122 CPU.ValuesMaterialized=244 CPU.VecBytes=203 CPU.VecValues=140 RecordsProcessed=122 OutputBytes=2420 OutputRecords=122 GroupsPruned=1 RecordsPruned=1060 RecordsFiltered=18 SplitsPruned=7 CacheHits=2 BytesFromCache=4140 VecBatches=7 RowsVectorized=140\nreduce: \ngroups=0 out=122 plan: SplitsTotal=8 SplitsPruned=7 FilesChecked=8 RecordsPruned=1050 Columns=[x] Vectorized=true\n[5] /pin/cif/s0,/pin/cif/s1@0 /pin/cif/s2,/pin/cif/s3@2 tasks#aeec032df033\ntotal: IO.LogicalBytes=10160 IO.InterleavedBytes=2542 IO.Opens=8 CPU.StringBytes=6066 CPU.SkippedBytes=464 CPU.RecordsMaterialized=506 CPU.ValuesMaterialized=1012 CPU.VecBytes=943 CPU.VecValues=510 RecordsProcessed=506 OutputBytes=10114 OutputRecords=506 GroupsPruned=5 RecordsPruned=690 RecordsFiltered=4 SplitsPruned=4 CacheHits=8 BytesFromCache=17001 VecBatches=27 RowsVectorized=510\nreduce: \ngroups=0 out=506 plan: SplitsTotal=8 SplitsPruned=4 FilesChecked=8 RecordsPruned=600 Columns=[x] Vectorized=true",
	"ingest_compaction":         "gen=8 IO.LocalBytes=175063 IO.LogicalBytes=130141 IO.InterleavedBytes=106979 IO.Opens=56 IO.BytesWritten=322842 CPU.RawBytes=291741 CPU.IntBytes=2429 CPU.StringBytes=52668 CPU.MapBytes=20127 CPU.SkippedBytes=4510 CPU.DictBytes=13708 CPU.DictCompBytes=30010 CPU.RecordsMaterialized=263 CPU.ValuesMaterialized=5113 RecordsProcessed=263 FlushedFiles=83 CompactionBytes=134110 UpsertsResolved=137 FreshPartitionsScanned=8",
	"ingest_compaction_session": "gen=8 IO.LocalBytes=175063 IO.LogicalBytes=130141 IO.InterleavedBytes=106979 IO.Opens=56 IO.BytesWritten=322842 CPU.RawBytes=291741 CPU.IntBytes=2429 CPU.StringBytes=52668 CPU.MapBytes=20127 CPU.SkippedBytes=4510 CPU.DictBytes=13708 CPU.DictCompBytes=30010 CPU.RecordsMaterialized=263 CPU.ValuesMaterialized=5113 RecordsProcessed=263 FlushedFiles=83 CompactionBytes=134110 UpsertsResolved=137 FreshPartitionsScanned=8",
	"corrupt_column":            "mapred: map task 2 (/pin/cif/s2): core: column \"s\": colfile: bad magic \"\\xff\\xff\\xff\\xff\"",
	"corrupt_column_batch":      "mapred: batch job 0: mapred: map task 2 (/pin/cif/s2): core: column \"s\": colfile: bad magic \"\\xff\\xff\\xff\\xff\"",
}
