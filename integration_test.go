package colmr_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"colmr"
	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/formats/txt"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// The integration suite runs whole-stack scenarios through the public API
// and across format boundaries: the same records must produce identical
// query answers no matter which storage format holds them, jobs must
// survive datanode failures, and re-replication must restore co-location.

func smallCluster(nodes int) sim.ClusterConfig {
	cfg := sim.DefaultCluster()
	cfg.Nodes = nodes
	cfg.BlockSize = 1 << 16
	cfg.TransferUnit = 1 << 12
	return cfg
}

// distinctContentTypes runs the paper's job over the given input format
// and returns the sorted distinct content-types found.
func distinctContentTypes(t *testing.T, fs *hdfs.FileSystem, in mapred.InputFormat, conf mapred.JobConf) []string {
	t.Helper()
	conf.NumReducers = 2
	conf.OutputPath = "/out/" + fmt.Sprintf("%p", in)
	job := &mapred.Job{
		Conf:  conf,
		Input: in,
		Mapper: mapred.MapperFunc(func(key, value any, emit mapred.Emit) error {
			rec := value.(serde.Record)
			url, err := rec.Get("url")
			if err != nil {
				return err
			}
			if !strings.Contains(url.(string), workload.MatchPattern) {
				return nil
			}
			md, err := rec.Get("metadata")
			if err != nil {
				return err
			}
			return emit(md.(map[string]any)["content-type"].(string), nil)
		}),
		Reducer: mapred.ReducerFunc(func(key any, values []any, emit mapred.Emit) error {
			return emit(key, nil)
		}),
		Output: mapred.TextOutput{},
	}
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatalf("job over %T: %v", in, err)
	}
	var out []string
	for p := 0; p < conf.NumReducers; p++ {
		data, err := fs.ReadFile(fmt.Sprintf("%s/part-%05d", conf.OutputPath, p))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line = strings.TrimSuffix(strings.TrimSpace(line), "\t"); line != "" {
				out = append(out, line)
			}
		}
	}
	sort.Strings(out)
	if int64(len(out)) != res.OutputRecords {
		t.Fatalf("output records %d != lines %d", res.OutputRecords, len(out))
	}
	return out
}

// TestFormatEquivalenceMatrix: one dataset, four storage formats, one job,
// identical answers.
func TestFormatEquivalenceMatrix(t *testing.T) {
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 99, ContentBytes: 800})
	const n = 600
	fs := hdfs.New(smallCluster(8), 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())

	// TXT.
	{
		f, err := fs.Create("/m/data.txt", hdfs.AnyNode)
		if err != nil {
			t.Fatal(err)
		}
		w := txt.NewWriter(f)
		for i := int64(0); i < n; i++ {
			rec := gen.Record(i)
			// Text cannot hold raw bytes of arbitrary content cheaply, but
			// the format supports it via hex; write as-is.
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	}
	// SEQ (block compressed, to cross a codec boundary too).
	{
		f, err := fs.Create("/m/data.seq", hdfs.AnyNode)
		if err != nil {
			t.Fatal(err)
		}
		w, err := seq.NewWriter(f, "/m/data.seq", gen.Schema(), seq.Options{Mode: seq.ModeBlock, Codec: "lzo", BlockBytes: 8 << 10}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			if err := w.Append(gen.Record(i)); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		f.Close()
	}
	// RCFile (zlib).
	{
		f, err := fs.Create("/m/data.rc", hdfs.AnyNode)
		if err != nil {
			t.Fatal(err)
		}
		w, err := rcfile.NewWriter(f, "/m/data.rc", gen.Schema(), rcfile.Options{Codec: "zlib", RowGroupBytes: 32 << 10}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			if err := w.Append(gen.Record(i)); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		f.Close()
	}
	// CIF (DCSL metadata, block-compressed content, lazy).
	{
		w, err := core.NewWriter(fs, "/m/cif", gen.Schema(), core.LoadOptions{
			SplitRecords: 128,
			PerColumn: map[string]colfileOptions{
				"metadata": {Layout: colmr.LayoutDCSL},
				"content":  {Layout: colmr.LayoutBlock, Codec: "lzo"},
			},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			if err := w.Append(gen.Record(i)); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
	}

	txtAns := distinctContentTypes(t, fs, &txt.InputFormat{Schema: gen.Schema()}, mapred.JobConf{InputPaths: []string{"/m/data.txt"}})
	seqAns := distinctContentTypes(t, fs, &seq.InputFormat{}, mapred.JobConf{InputPaths: []string{"/m/data.seq"}})

	rcConf := mapred.JobConf{InputPaths: []string{"/m/data.rc"}}
	rcfile.SetColumns(&rcConf, "url", "metadata")
	rcAns := distinctContentTypes(t, fs, &rcfile.InputFormat{}, rcConf)

	cifConf := mapred.JobConf{InputPaths: []string{"/m/cif"}}
	core.SetColumns(&cifConf, "url", "metadata")
	core.SetLazy(&cifConf, true)
	cifAns := distinctContentTypes(t, fs, &core.InputFormat{}, cifConf)

	want := strings.Join(txtAns, "|")
	if want == "" {
		t.Fatal("no answers at all; predicate never matched")
	}
	for name, got := range map[string][]string{"SEQ": seqAns, "RCFile": rcAns, "CIF": cifAns} {
		if strings.Join(got, "|") != want {
			t.Errorf("%s answer %v != TXT answer %v", name, got, txtAns)
		}
	}
}

// TestJobSurvivesNodeFailure: kill a datanode after load; the job must
// still produce the right answer from surviving replicas.
func TestJobSurvivesNodeFailure(t *testing.T) {
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 5, ContentBytes: 500})
	fs := hdfs.New(smallCluster(8), 2)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	w, err := core.NewWriter(fs, "/f/cif", gen.Schema(), core.LoadOptions{SplitRecords: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	conf := mapred.JobConf{InputPaths: []string{"/f/cif"}}
	core.SetColumns(&conf, "url", "metadata")
	before := distinctContentTypes(t, fs, &core.InputFormat{}, conf)

	fs.KillNode(0)
	fs.KillNode(1)
	after := distinctContentTypes(t, fs, &core.InputFormat{}, conf)
	if strings.Join(before, "|") != strings.Join(after, "|") {
		t.Errorf("answers diverged after node failures: %v vs %v", before, after)
	}
}

// TestReReplicationRestoresCoLocation: after a node dies and the namenode
// re-replicates, split-directories must be fully co-located again (the
// paper's §4.3 "re-replication after failures" future-work item).
func TestReReplicationRestoresCoLocation(t *testing.T) {
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 6, ContentBytes: 300})
	fs := hdfs.New(smallCluster(10), 3)
	cpp := hdfs.NewColumnPlacementPolicy()
	fs.SetPlacementPolicy(cpp)
	w, err := core.NewWriter(fs, "/r/cif", gen.Schema(), core.LoadOptions{SplitRecords: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 256; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Pick a victim that actually holds data.
	anchors := cpp.Anchors()
	if len(anchors) == 0 {
		t.Fatal("no anchored split directories")
	}
	var victim hdfs.NodeID = -1
	for _, nodes := range anchors {
		if len(nodes) > 0 {
			victim = nodes[0]
			break
		}
	}
	fs.KillNode(victim)
	created := fs.ReReplicate()
	if created == 0 {
		t.Fatal("re-replication created nothing")
	}
	fs.ReviveNode(victim) // victim returns empty; data moved on

	// Every split-directory must again have at least one node holding all
	// its (projected) files — scheduler-visible co-location.
	infos, err := fs.List("/r/cif")
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if !fi.IsDir {
			continue
		}
		files := []string{fi.Path + "/url", fi.Path + "/metadata", fi.Path + "/content"}
		hosts := fs.HostsFor(files)
		if len(hosts) == 0 {
			t.Errorf("split %s lost co-location after re-replication", fi.Path)
		}
		for _, h := range hosts {
			if h == victim {
				t.Errorf("split %s still counts dead-then-empty node %d as host", fi.Path, victim)
			}
		}
	}
}

// TestPublicAPIEndToEnd drives the whole workflow through the colmr facade
// only — what a downstream user sees.
func TestPublicAPIEndToEnd(t *testing.T) {
	fs := colmr.NewFileSystem(colmr.DefaultCluster(), 42)
	fs.SetPlacementPolicy(colmr.NewColumnPlacementPolicy())

	schema := colmr.MustParseSchema(`Event { string kind, long ts, map<string> attrs }`)
	w, err := colmr.NewColumnWriter(fs, "/api/events", schema, colmr.LoadOptions{SplitRecords: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"click", "view", "purchase"}
	for i := 0; i < 1000; i++ {
		rec := colmr.NewRecord(schema)
		rec.Set("kind", kinds[i%3])
		rec.Set("ts", int64(i))
		rec.Set("attrs", map[string]any{"source": "web"})
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	if s, err := colmr.ReadDatasetSchema(fs, "/api/events"); err != nil || !s.Equal(schema) {
		t.Fatalf("ReadDatasetSchema = %v, %v", s, err)
	}

	conf := colmr.JobConf{InputPaths: []string{"/api/events"}, NumReducers: 1, OutputPath: "/api/out"}
	colmr.SetColumns(&conf, "kind")
	job := &colmr.Job{
		Conf:  conf,
		Input: &colmr.ColumnInputFormat{},
		Mapper: colmr.MapperFunc(func(k, v any, emit colmr.Emit) error {
			kind, err := v.(colmr.Record).Get("kind")
			if err != nil {
				return err
			}
			return emit(kind, int64(1))
		}),
		Reducer: colmr.ReducerFunc(func(k any, vs []any, emit colmr.Emit) error {
			return emit(k, int64(len(vs)))
		}),
		Output: colmr.TextOutput{},
	}
	res, err := colmr.RunJob(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceGroups != 3 {
		t.Errorf("ReduceGroups = %d, want 3", res.ReduceGroups)
	}
	out, err := fs.ReadFile("/api/out/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if !strings.Contains(string(out), k) {
			t.Errorf("output missing kind %q:\n%s", k, out)
		}
	}

	// Evolve the schema through the facade.
	if err := colmr.AddColumn(fs, "/api/events", "bucket", colmr.IntSchema(), colmr.ColumnOptions{},
		[]string{"ts"}, func(rec colmr.Record) (any, error) {
			ts, err := rec.Get("ts")
			if err != nil {
				return nil, err
			}
			return int32(ts.(int64) % 10), nil
		}, nil); err != nil {
		t.Fatal(err)
	}
	s, err := colmr.ReadDatasetSchema(fs, "/api/events")
	if err != nil || s.FieldIndex("bucket") < 0 {
		t.Fatalf("bucket column missing after AddColumn: %v, %v", s.FieldNames(), err)
	}
}

// colfileOptions aliases the column options type for composite literals in
// this external test package.
type colfileOptions = colmr.ColumnOptions

// TestShuffleCountersPinned holds two shuffling jobs to the counters and the
// reduce output they had before the shuffle stopped storing key bytes, hashed
// keys without a hash object and sorted indexes instead of pairs: the crawl
// job (lazy CIF, DCSL metadata, string keys over two reducers) and a count by
// kind (three keys, one reducer).
func TestShuffleCountersPinned(t *testing.T) {
	fs := hdfs.New(smallCluster(8), 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 99, ContentBytes: 800})
	w, err := core.NewWriter(fs, "/pin/cif", gen.Schema(), core.LoadOptions{
		SplitRecords: 128,
		PerColumn:    map[string]colfileOptions{"metadata": {Layout: colmr.LayoutDCSL}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 600; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	count := mapred.ReducerFunc(func(k any, vs []any, emit mapred.Emit) error {
		var n int64
		for _, v := range vs {
			n += v.(int64)
		}
		return emit(k, n)
	})
	crawl := core.ScanDataset("/pin/cif").Columns("url", "metadata").Lazy(true).
		Job(mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
			rec := v.(serde.Record)
			url, err := rec.Get("url")
			if err != nil {
				return err
			}
			if !strings.Contains(url.(string), workload.MatchPattern) {
				return nil
			}
			md, err := rec.Get("metadata")
			if err != nil {
				return err
			}
			return emit(md.(map[string]any)["content-type"], int64(1))
		}))
	crawl.Reducer = count
	crawl.Conf.NumReducers = 2
	crawl.Conf.OutputPath = "/pin/out-crawl"
	crawl.Output = mapred.TextOutput{}

	byLen := core.ScanDataset("/pin/cif").Columns("url").
		Job(mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
			url, err := v.(serde.Record).Get("url")
			if err != nil {
				return err
			}
			return emit(int32(len(url.(string))%3), int64(1))
		}))
	byLen.Reducer = count
	byLen.Combiner = count
	byLen.Conf.NumReducers = 1
	byLen.Conf.OutputPath = "/pin/out-len"
	byLen.Output = mapred.TextOutput{}

	for _, tc := range []struct {
		name          string
		job           *mapred.Job
		parts         int
		groups, out   int64
		total, output string
	}{
		{name: "crawl", job: crawl, parts: 2, groups: pinCrawlGroups, out: pinCrawlGroups, total: pinCrawlTotal, output: pinCrawlOutput},
		{name: "bylen", job: byLen, parts: 1, groups: 3, out: 3, total: pinLenTotal, output: pinLenOutput},
	} {
		res, err := mapred.Run(fs, tc.job)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.ReduceGroups != tc.groups || res.OutputRecords != tc.out {
			t.Errorf("%s: %d reduce groups, %d output records, want %d and %d", tc.name, res.ReduceGroups, res.OutputRecords, tc.groups, tc.out)
		}
		if got := fmt.Sprintf("%+v", res.Total); got != tc.total {
			t.Errorf("%s: Result.Total\n got %s\nwant %s", tc.name, got, tc.total)
		}
		var output string
		for p := 0; p < tc.parts; p++ {
			data, err := fs.ReadFile(fmt.Sprintf("%s/part-%05d", tc.job.Conf.OutputPath, p))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			output += fmt.Sprintf("[%d]%s", p, data)
		}
		if output != tc.output {
			t.Errorf("%s: reduce output\n got %q\nwant %q", tc.name, output, tc.output)
		}
	}
}

// Recorded at the commit before the shuffle change.
const (
	pinCrawlGroups = 8
	pinCrawlTotal  = "{IO:{LocalBytes:70599 RemoteBytes:0 LogicalBytes:56658 Seeks:0 InterleavedBytes:14166 Opens:10 BytesWritten:0} CPU:{RawBytes:0 IntBytes:0 DoubleBytes:0 StringBytes:27657 MapBytes:0 TextBytes:0 SkippedBytes:11597 ZlibBytes:0 LzoBytes:0 DictBytes:2043 ZlibCompBytes:0 LzoCompBytes:0 DictCompBytes:0 RecordsMaterialized:600 ValuesMaterialized:775 VecBytes:0 VecValues:0} RecordsProcessed:600 OutputBytes:745 OutputRecords:35 GroupsPruned:0 RecordsPruned:0 BloomPruned:0 RecordsFiltered:0 SplitsPruned:0 FilesPruned:0 SharedReads:0 BytesSaved:0 CacheHits:0 BytesFromCache:0 VecBatches:0 RowsVectorized:0 VecCacheHits:0 DecodeSavedValues:0 AggBatches:0 RowsAggregated:0 AggGroupsShortcut:0 DictIdCompares:0 FlushedFiles:0 CompactionBytes:0 UpsertsResolved:0 FreshPartitionsScanned:0}"
	pinCrawlOutput = "[0]application/msword\t3\napplication/pdf\t6\ntext/css\t6\ntext/html\t4\n[1]application/javascript\t1\napplication/xml\t6\nimage/jpeg\t5\ntext/plain\t4\n"
	pinLenTotal    = "{IO:{LocalBytes:39052 RemoteBytes:0 LogicalBytes:27712 Seeks:0 InterleavedBytes:0 Opens:5 BytesWritten:0} CPU:{RawBytes:0 IntBytes:0 DoubleBytes:0 StringBytes:27657 MapBytes:0 TextBytes:0 SkippedBytes:0 ZlibBytes:0 LzoBytes:0 DictBytes:0 ZlibCompBytes:0 LzoCompBytes:0 DictCompBytes:0 RecordsMaterialized:600 ValuesMaterialized:600 VecBytes:0 VecValues:0} RecordsProcessed:600 OutputBytes:180 OutputRecords:15 GroupsPruned:0 RecordsPruned:0 BloomPruned:0 RecordsFiltered:0 SplitsPruned:0 FilesPruned:0 SharedReads:0 BytesSaved:0 CacheHits:0 BytesFromCache:0 VecBatches:0 RowsVectorized:0 VecCacheHits:0 DecodeSavedValues:0 AggBatches:0 RowsAggregated:0 AggGroupsShortcut:0 DictIdCompares:0 FlushedFiles:0 CompactionBytes:0 UpsertsResolved:0 FreshPartitionsScanned:0}"
	pinLenOutput   = "[0]0\t217\n1\t235\n2\t148\n"
)
