package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

var crawlSchema = serde.MustParse(`
URLInfo {
  string url,
  time fetchTime,
  map<string> metadata,
  bytes content
}`)

func makeRecord(rng *rand.Rand, i int) *serde.GenericRecord {
	rec := serde.NewRecord(crawlSchema)
	host := "site" + string(rune('a'+i%17))
	url := "http://" + host + ".com/page/" + fmt.Sprint(i)
	if i%16 == 0 { // ~6% selectivity, like the paper's ibm.com/jp predicate
		url = "http://ibm.com/jp/page/" + fmt.Sprint(i)
	}
	rec.Set("url", url)
	rec.Set("fetchTime", int64(1293840000000+i))
	rec.Set("metadata", map[string]any{
		"content-type":   contentTypes[i%len(contentTypes)],
		"content-length": fmt.Sprint(1000 + i),
		"server":         "httpd/2.2",
	})
	content := make([]byte, 400+rng.Intn(200))
	rng.Read(content)
	rec.Set("content", content)
	return rec
}

var contentTypes = []string{"text/html", "application/pdf", "text/plain"}

func testFS(t testing.TB, nodes int) *hdfs.FileSystem {
	t.Helper()
	cfg := sim.DefaultCluster()
	cfg.Nodes = nodes
	cfg.BlockSize = 1 << 16
	cfg.TransferUnit = 1 << 12
	return hdfs.New(cfg, 1)
}

func loadDataset(t *testing.T, fs *hdfs.FileSystem, dataset string, opts LoadOptions, n int) []*serde.GenericRecord {
	t.Helper()
	w, err := NewWriter(fs, dataset, crawlSchema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var recs []*serde.GenericRecord
	for i := 0; i < n; i++ {
		rec := makeRecord(rng, i)
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

func scanAll(t *testing.T, fs *hdfs.FileSystem, dataset string, conf *mapred.JobConf) ([]map[string]any, sim.TaskStats) {
	t.Helper()
	in := &InputFormat{}
	if conf == nil {
		conf = &mapred.JobConf{}
	}
	conf.InputPaths = []string{dataset}
	splits, report, err := in.PlannedSplits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	var total sim.TaskStats
	// Fold the scheduler tier's pruning into the aggregate, as the engine
	// does, so counters cover the whole dataset whichever tier pruned.
	total.SplitsPruned += int64(report.SplitsPruned)
	total.RecordsPruned += report.RecordsPruned
	rows, st := drainSplits(t, fs, conf, splits)
	total.Add(st)
	return rows, total
}

// drainSplits scans splits (hand-built ones may carry delete vectors) to
// completion, copying each record's fields out so lazy and eager runs
// compare alike.
func drainSplits(t testing.TB, fs *hdfs.FileSystem, conf *mapred.JobConf, splits []mapred.Split) ([]map[string]any, sim.TaskStats) {
	t.Helper()
	in := &InputFormat{}
	var rows []map[string]any
	var total sim.TaskStats
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
			row := map[string]any{}
			for _, f := range rec.Schema().Fields {
				if row[f.Name], err = rec.Get(f.Name); err != nil {
					t.Fatal(err)
				}
			}
			rows = append(rows, row)
		}
		rr.Close()
		total.Add(st)
	}
	return rows, total
}

func TestCOFCIFRoundTrip(t *testing.T) {
	fs := testFS(t, 8)
	want := loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 37}, 200)
	rows, _ := scanAll(t, fs, "/data/crawl", nil)
	if len(rows) != len(want) {
		t.Fatalf("scanned %d rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		for _, f := range crawlSchema.Fields {
			wv := want[i].GetAt(crawlSchema.FieldIndex(f.Name))
			if !serde.ValuesEqual(f.Type, row[f.Name], wv) {
				t.Fatalf("row %d field %s mismatch", i, f.Name)
			}
		}
	}
}

func TestSplitDirectoryLayout(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 50}, 200)
	dirs, err := listSplitDirs(fs, "/data/crawl")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 4 {
		t.Fatalf("split dirs = %v, want 4", dirs)
	}
	infos, err := fs.List(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Name())
	}
	want := []string{SchemaFile, "content", "fetchTime", "metadata", "url"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("split dir contents = %v, want %v", names, want)
	}
	s, err := ReadSchema(fs, "/data/crawl")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(crawlSchema) {
		t.Error("dataset schema mismatch")
	}
}

// Projection pushdown: scanning one small column must not read the content
// column's bytes at all (true I/O elimination, unlike RCFile).
func TestProjectionEliminatesIO(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 100}, 400)

	full := &mapred.JobConf{}
	_, fullStats := scanAll(t, fs, "/data/crawl", full)

	proj := &mapred.JobConf{Scan: &scan.Spec{Columns: []string{"fetchTime"}}}
	rows, projStats := scanAll(t, fs, "/data/crawl", proj)
	if len(rows) != 400 {
		t.Fatalf("projected scan returned %d rows", len(rows))
	}
	if _, ok := rows[0]["fetchTime"]; !ok {
		t.Fatal("projected column missing")
	}
	if projStats.IO.TotalChargedBytes()*4 > fullStats.IO.TotalChargedBytes() {
		t.Errorf("projected scan charged %d bytes vs full %d; want >4x elimination",
			projStats.IO.TotalChargedBytes(), fullStats.IO.TotalChargedBytes())
	}
}

// Lazy and eager construction must expose identical data.
func TestLazyEagerEquivalence(t *testing.T) {
	for _, layout := range []colfile.Options{
		{Layout: colfile.Plain},
		{Layout: colfile.SkipList, Levels: []int{100, 10}},
		{Layout: colfile.Block, Codec: "lzo", BlockBytes: 4 << 10},
	} {
		fs := testFS(t, 8)
		loadDataset(t, fs, "/d", LoadOptions{SplitRecords: 64, Default: layout}, 250)

		eager := &mapred.JobConf{Scan: &scan.Spec{Columns: []string{"url", "metadata"}}}
		eagerRows, _ := scanAll(t, fs, "/d", eager)

		lazy := &mapred.JobConf{Scan: &scan.Spec{Columns: []string{"url", "metadata"}, Lazy: true}}
		lazyRows, _ := scanAll(t, fs, "/d", lazy)

		if len(eagerRows) != len(lazyRows) {
			t.Fatalf("%v: %d eager vs %d lazy rows", layout.Layout, len(eagerRows), len(lazyRows))
		}
		for i := range eagerRows {
			if !serde.ValuesEqual(serde.String(), eagerRows[i]["url"], lazyRows[i]["url"]) ||
				!serde.ValuesEqual(serde.MapOf(serde.String()), eagerRows[i]["metadata"], lazyRows[i]["metadata"]) {
				t.Fatalf("%v: row %d differs between lazy and eager", layout.Layout, i)
			}
		}
	}
}

// The headline lazy-record property: when the predicate is selective, the
// metadata column is deserialized only for matching records.
func TestLazySkipsDeserialization(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/d", LoadOptions{
		SplitRecords: 512,
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.SkipList, Levels: []int{100, 10}}},
	}, 1024)

	run := func(lazy bool) (int64, sim.TaskStats) {
		conf := &mapred.JobConf{Scan: &scan.Spec{Columns: []string{"url", "metadata"}, Lazy: lazy}}
		conf.InputPaths = []string{"/d"}
		in := &InputFormat{}
		splits, err := in.Splits(fs, conf)
		if err != nil {
			t.Fatal(err)
		}
		var matched int64
		var total sim.TaskStats
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
				url, err := rec.Get("url")
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(url.(string), "ibm.com/jp") {
					md, err := rec.Get("metadata")
					if err != nil {
						t.Fatal(err)
					}
					if md.(map[string]any)["content-type"] == nil {
						t.Fatal("missing content-type")
					}
					matched++
				}
			}
			rr.Close()
			total.Add(st)
		}
		return matched, total
	}

	eagerMatched, eagerStats := run(false)
	lazyMatched, lazyStats := run(true)
	if eagerMatched != lazyMatched || eagerMatched != 64 {
		t.Fatalf("matched: eager %d, lazy %d, want 64", eagerMatched, lazyMatched)
	}
	// Lazy mode must deserialize far less map data (6% of records).
	if lazyStats.CPU.MapBytes*4 > eagerStats.CPU.MapBytes {
		t.Errorf("lazy MapBytes %d vs eager %d; want >4x reduction",
			lazyStats.CPU.MapBytes, eagerStats.CPU.MapBytes)
	}
	// The predicate reads url on every record, so record counts match; the
	// object-churn savings appear in values materialized (metadata maps
	// are only built for the 6% of matching records).
	if lazyStats.CPU.ValuesMaterialized*2 > eagerStats.CPU.ValuesMaterialized {
		t.Errorf("lazy materialized %d values vs eager %d; want >2x reduction",
			lazyStats.CPU.ValuesMaterialized, eagerStats.CPU.ValuesMaterialized)
	}
}

// Repeated Get on the same record must not re-read the column.
func TestLazyGetIsCached(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/d", LoadOptions{SplitRecords: 50}, 50)
	conf := &mapred.JobConf{Scan: &scan.Spec{Columns: []string{"url"}, Lazy: true}}
	conf.InputPaths = []string{"/d"}
	in := &InputFormat{}
	splits, _ := in.Splits(fs, conf)
	var st sim.TaskStats
	rr, err := in.Open(fs, conf, splits[0], hdfs.AnyNode, &st)
	if err != nil {
		t.Fatal(err)
	}
	_, v, _, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	rec := v.(serde.Record)
	a, err := rec.Get("url")
	if err != nil {
		t.Fatal(err)
	}
	before := st.CPU
	b, err := rec.Get("url")
	if err != nil {
		t.Fatal(err)
	}
	if a.(string) != b.(string) {
		t.Error("cached value differs")
	}
	if st.CPU != before {
		t.Error("second Get charged CPU")
	}
	if _, err := rec.Get("metadata"); err == nil {
		t.Error("Get outside projection should fail")
	}
}

func TestCIFWithMapReduceAndCPP(t *testing.T) {
	// Full integration: the paper's example job (distinct content-types of
	// ibm.com/jp pages) over CIF with the column placement policy.
	cfg := sim.DefaultCluster()
	cfg.Nodes = 10
	cfg.BlockSize = 1 << 16
	fs := hdfs.New(cfg, 3)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())

	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 128}, 1024)

	conf := mapred.JobConf{
		InputPaths: []string{"/data/crawl"}, OutputPath: "/out", NumReducers: 2,
		Scan: &scan.Spec{Columns: []string{"url", "metadata"}, Lazy: true},
	}
	job := &mapred.Job{
		Conf:  conf,
		Input: &InputFormat{},
		Mapper: mapred.MapperFunc(func(key, value any, emit mapred.Emit) error {
			rec := value.(serde.Record)
			url, err := rec.Get("url")
			if err != nil {
				return err
			}
			if !strings.Contains(url.(string), "ibm.com/jp") {
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
		t.Fatal(err)
	}
	if res.OutputRecords != int64(len(contentTypes)) {
		t.Errorf("distinct content-types = %d, want %d", res.OutputRecords, len(contentTypes))
	}
	// With CPP every task must read fully locally.
	if res.Total.IO.RemoteBytes != 0 {
		t.Errorf("remote bytes = %d with CPP, want 0", res.Total.IO.RemoteBytes)
	}
	if res.Total.RecordsProcessed != 1024 {
		t.Errorf("records processed = %d", res.Total.RecordsProcessed)
	}
}

func TestDefaultPlacementCausesRemoteReads(t *testing.T) {
	cfg := sim.DefaultCluster()
	cfg.Nodes = 16
	cfg.BlockSize = 1 << 16
	fs := hdfs.New(cfg, 5) // default placement policy
	loadDataset(t, fs, "/d", LoadOptions{SplitRecords: 128}, 1024)
	conf := mapred.JobConf{InputPaths: []string{"/d"}, Scan: &scan.Spec{Columns: []string{"url", "metadata", "content"}}}
	job := &mapred.Job{
		Conf:   conf,
		Input:  &InputFormat{},
		Mapper: mapred.MapperFunc(func(k, v any, e mapred.Emit) error { return nil }),
		Output: mapred.NullOutput{},
	}
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.IO.RemoteBytes == 0 {
		t.Error("default placement produced no remote reads; co-location experiment would be vacuous")
	}
}

func TestAddColumn(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/d", LoadOptions{SplitRecords: 60}, 150)
	err := AddColumn(fs, "/d", "domain", serde.String(), colfile.Options{}, []string{"url"},
		func(rec serde.Record) (any, error) {
			u, err := rec.Get("url")
			if err != nil {
				return nil, err
			}
			s := strings.TrimPrefix(u.(string), "http://")
			if i := strings.IndexByte(s, '/'); i >= 0 {
				s = s[:i]
			}
			return s, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ReadSchema(fs, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if s.FieldIndex("domain") != len(crawlSchema.Fields) {
		t.Fatalf("domain not appended to schema: %v", s.FieldNames())
	}
	conf := &mapred.JobConf{Scan: &scan.Spec{Columns: []string{"url", "domain"}}}
	rows, _ := scanAll(t, fs, "/d", conf)
	if len(rows) != 150 {
		t.Fatalf("scanned %d rows after AddColumn", len(rows))
	}
	for _, row := range rows {
		url := row["url"].(string)
		domain := row["domain"].(string)
		if !strings.Contains(url, domain) {
			t.Fatalf("domain %q not derived from %q", domain, url)
		}
	}
	if err := AddColumn(fs, "/d", "domain", serde.String(), colfile.Options{}, nil, nil, nil); err == nil {
		t.Error("re-adding an existing column should fail")
	}
}

func TestLoadFromSequenceFile(t *testing.T) {
	// Round-trip through the loader path used by Table 2.
	fs := testFS(t, 8)
	loadDataset(t, fs, "/cif-src", LoadOptions{SplitRecords: 100}, 100)
	// Re-load the CIF dataset into another CIF dataset via the generic
	// loader (CIF InputFormat in, COF out).
	conf := &mapred.JobConf{InputPaths: []string{"/cif-src"}}
	n, err := Load(fs, &InputFormat{}, conf, crawlSchema, "/cif-dst", LoadOptions{SplitRecords: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("loaded %d records, want 100", n)
	}
	rows, _ := scanAll(t, fs, "/cif-dst", nil)
	if len(rows) != 100 {
		t.Fatalf("destination has %d rows", len(rows))
	}
}

func TestMixedLayoutsPerColumn(t *testing.T) {
	fs := testFS(t, 8)
	opts := LoadOptions{
		SplitRecords: 128,
		Default:      colfile.Options{Layout: colfile.Plain},
		PerColumn: map[string]colfile.Options{
			"metadata": {Layout: colfile.DCSL, Levels: []int{100, 10}},
			"content":  {Layout: colfile.Block, Codec: "lzo", BlockBytes: 8 << 10},
		},
	}
	want := loadDataset(t, fs, "/d", opts, 300)
	rows, _ := scanAll(t, fs, "/d", nil)
	if len(rows) != len(want) {
		t.Fatalf("scanned %d", len(rows))
	}
	for i, row := range rows {
		if !serde.ValuesEqual(serde.MapOf(serde.String()), row["metadata"], want[i].GetAt(2)) {
			t.Fatalf("row %d metadata mismatch (DCSL layout)", i)
		}
		if !serde.ValuesEqual(serde.Bytes(), row["content"], want[i].GetAt(3)) {
			t.Fatalf("row %d content mismatch (block layout)", i)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	fs := testFS(t, 8)
	if _, err := NewWriter(fs, "/x", serde.Int(), LoadOptions{}, nil); err == nil {
		t.Error("non-record schema accepted")
	}
	if _, err := NewWriter(fs, "/x", crawlSchema, LoadOptions{PerColumn: map[string]colfile.Options{"nope": {}}}, nil); err == nil {
		t.Error("override for unknown column accepted")
	}
	if _, err := NewWriter(fs, "/x", crawlSchema, LoadOptions{PerColumn: map[string]colfile.Options{"fetchTime": {Layout: colfile.DCSL}}}, nil); err == nil {
		t.Error("DCSL on numeric column accepted")
	}
	if _, err := NewWriter(fs, "/x", crawlSchema, LoadOptions{PerColumn: map[string]colfile.Options{"url": {Layout: colfile.DCSL}}}, nil); err != nil {
		t.Errorf("DCSL on string column rejected: %v", err)
	}
	in := &InputFormat{}
	if _, err := in.Splits(fs, &mapred.JobConf{InputPaths: []string{"/missing"}}); err == nil {
		t.Error("missing dataset accepted")
	}
	fs.MkdirAll("/empty")
	if _, err := in.Splits(fs, &mapred.JobConf{InputPaths: []string{"/empty"}}); err == nil {
		t.Error("dataset without split dirs accepted")
	}
	loadDataset(t, fs, "/d", LoadOptions{SplitRecords: 10}, 10)
	conf := &mapred.JobConf{InputPaths: []string{"/d"}, Scan: &scan.Spec{Columns: []string{"nope"}}}
	splits, err := (&InputFormat{}).Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Open(fs, conf, splits[0], hdfs.AnyNode, nil); err == nil {
		t.Error("projection of unknown column accepted")
	}
}

func TestDirsPerSplit(t *testing.T) {
	fs := testFS(t, 8)
	loadDataset(t, fs, "/d", LoadOptions{SplitRecords: 25}, 100) // 4 dirs
	conf := &mapred.JobConf{InputPaths: []string{"/d"}}
	splits, err := (&InputFormat{DirsPerSplit: 2}).Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("splits = %d, want 2", len(splits))
	}
	rows, _ := scanAllWith(t, fs, conf, &InputFormat{DirsPerSplit: 2})
	if rows != 100 {
		t.Fatalf("rows = %d, want 100", rows)
	}
}

func scanAllWith(t *testing.T, fs *hdfs.FileSystem, conf *mapred.JobConf, in *InputFormat) (int, sim.TaskStats) {
	t.Helper()
	splits, err := in.Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var total sim.TaskStats
	for _, sp := range splits {
		var st sim.TaskStats
		rr, err := in.Open(fs, conf, sp, hdfs.AnyNode, &st)
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
			count++
		}
		rr.Close()
		total.Add(st)
	}
	return count, total
}
