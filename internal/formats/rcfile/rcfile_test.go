package rcfile

import (
	"math/rand"
	"testing"

	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

var testSchema = serde.MustParse(`
T {
  string url,
  int n,
  map<string> meta,
  bytes content
}`)

func makeRecord(rng *rand.Rand, i int) *serde.GenericRecord {
	rec := serde.NewRecord(testSchema)
	rec.Set("url", "http://x/"+string(rune('a'+i%26)))
	rec.Set("n", int32(i))
	rec.Set("meta", map[string]any{"content-type": "text/html", "k": string(rune('0' + i%10))})
	content := make([]byte, 200+rng.Intn(100))
	for j := range content {
		content[j] = byte('A' + (i+j)%23)
	}
	rec.Set("content", content)
	return rec
}

func testFS(t *testing.T) *hdfs.FileSystem {
	t.Helper()
	cfg := sim.DefaultCluster()
	cfg.Nodes = 4
	cfg.BlockSize = 1 << 16
	cfg.TransferUnit = 1 << 12
	return hdfs.New(cfg, 1)
}

func writeRC(t *testing.T, fs *hdfs.FileSystem, path string, opts Options, n int) []*serde.GenericRecord {
	t.Helper()
	f, err := fs.Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, path, testSchema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
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
	f.Close()
	return recs
}

func readAll(t *testing.T, fs *hdfs.FileSystem, path string, splitSize int64, columns []string) ([]*serde.GenericRecord, sim.TaskStats) {
	t.Helper()
	return readSpec(t, fs, path, splitSize, &scan.Spec{Columns: columns})
}

// readSpec reads every split of an RCFile under the given scan spec.
func readSpec(t *testing.T, fs *hdfs.FileSystem, path string, splitSize int64, spec *scan.Spec) ([]*serde.GenericRecord, sim.TaskStats) {
	t.Helper()
	in := &InputFormat{SplitSize: splitSize}
	conf := &mapred.JobConf{InputPaths: []string{path}, Scan: spec}
	splits, err := in.Splits(fs, conf)
	if err != nil {
		t.Fatal(err)
	}
	var out []*serde.GenericRecord
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
			out = append(out, v.(*serde.GenericRecord))
		}
		rr.Close()
		total.Add(st)
	}
	return out, total
}

func TestRoundTrip(t *testing.T) {
	for _, codec := range []string{"none", "zlib"} {
		fs := testFS(t)
		want := writeRC(t, fs, "/d/f.rc", Options{Codec: codec, RowGroupBytes: 16 << 10}, 300)
		got, _ := readAll(t, fs, "/d/f.rc", 1<<62, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: read %d, want %d", codec, len(got), len(want))
		}
		for i := range want {
			if !serde.RecordsEqual(want[i], got[i]) {
				t.Fatalf("%s: record %d mismatch", codec, i)
			}
		}
	}
}

func TestProjection(t *testing.T) {
	fs := testFS(t)
	want := writeRC(t, fs, "/f.rc", Options{RowGroupBytes: 16 << 10}, 200)
	got, _ := readAll(t, fs, "/f.rc", 1<<62, []string{"n", "url"})
	if len(got) != len(want) {
		t.Fatalf("read %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Schema().Fields) != 2 {
			t.Fatalf("projected record has %d fields", len(got[i].Schema().Fields))
		}
		wn, _ := want[i].Get("n")
		gn, _ := got[i].Get("n")
		if wn.(int32) != gn.(int32) {
			t.Fatalf("record %d: n = %v, want %v", i, gn, wn)
		}
		if _, err := got[i].Get("content"); err == nil {
			t.Fatal("projected record exposes unprojected column")
		}
	}
}

// TestSpecProjection: RCFile takes its projection from the job's scan spec
// and nothing else from it — it has no predicate pushdown, so a spec
// predicate leaves every row in the output, for the map function to filter.
func TestSpecProjection(t *testing.T) {
	fs := testFS(t)
	want := writeRC(t, fs, "/f.rc", Options{RowGroupBytes: 16 << 10}, 200)
	spec := &scan.Spec{Columns: []string{"url", "n"}, Predicate: scan.Lt("n", int32(0))}
	got, _ := readSpec(t, fs, "/f.rc", 1<<62, spec)
	if len(got) != len(want) {
		t.Fatalf("read %d rows under a match-nothing predicate, want all %d", len(got), len(want))
	}
	for i := range want {
		if names := got[i].Schema().FieldNames(); len(names) != 2 || names[0] != "url" || names[1] != "n" {
			t.Fatalf("record %d has fields %v, want [url n]", i, names)
		}
		for _, col := range []string{"url", "n"} {
			wv, _ := want[i].Get(col)
			gv, err := got[i].Get(col)
			if err != nil || gv != wv {
				t.Fatalf("record %d: %s = %v (%v), want %v", i, col, gv, err, wv)
			}
		}
		for _, col := range []string{"meta", "content"} {
			if _, err := got[i].Get(col); err == nil {
				t.Fatalf("record %d: unprojected %s readable", i, col)
			}
		}
	}
}

// Projecting one small column must read far fewer logical bytes than the
// full scan, but still more than the column's own size — the prefetch
// waste the paper measures (RCFile read 20x more bytes than CIF).
func TestProjectionReducesButDoesNotEliminateIO(t *testing.T) {
	fs := testFS(t)
	writeRC(t, fs, "/f.rc", Options{RowGroupBytes: 32 << 10}, 2000)
	_, full := readAll(t, fs, "/f.rc", 1<<62, nil)
	_, one := readAll(t, fs, "/f.rc", 1<<62, []string{"n"})
	if one.IO.TotalChargedBytes() >= full.IO.TotalChargedBytes() {
		t.Errorf("1-col charged %d >= full %d", one.IO.TotalChargedBytes(), full.IO.TotalChargedBytes())
	}
	// The int column is ~2 bytes/record; charged bytes include metadata
	// and transfer-unit rounding, so they must exceed the raw column size
	// by a wide margin.
	if one.IO.TotalChargedBytes() < 8*2000 {
		t.Errorf("charged %d suspiciously low; transfer-unit accounting broken?", one.IO.TotalChargedBytes())
	}
	if one.IO.Seeks < 4 {
		t.Errorf("seeks = %d; projected chunk reads should seek per row group", one.IO.Seeks)
	}
}

func TestSplitsExactlyOnce(t *testing.T) {
	fs := testFS(t)
	const n = 500
	writeRC(t, fs, "/f.rc", Options{RowGroupBytes: 8 << 10}, n)
	for _, splitSize := range []int64{1 << 62, 1 << 15, 7777} {
		got, _ := readAll(t, fs, "/f.rc", splitSize, nil)
		if len(got) != n {
			t.Fatalf("splitSize %d: read %d records, want %d", splitSize, len(got), n)
		}
		seen := map[int32]bool{}
		for _, r := range got {
			v, _ := r.Get("n")
			if seen[v.(int32)] {
				t.Fatalf("splitSize %d: record %d duplicated", splitSize, v)
			}
			seen[v.(int32)] = true
		}
	}
}

func TestMetadataChargedAsCPU(t *testing.T) {
	fs := testFS(t)
	writeRC(t, fs, "/f.rc", Options{RowGroupBytes: 8 << 10}, 500)
	_, st := readAll(t, fs, "/f.rc", 1<<62, []string{"n"})
	if st.CPU.IntBytes == 0 {
		t.Error("metadata interpretation not charged")
	}
}

func TestSmallerRowGroupsWasteMoreIO(t *testing.T) {
	// Appendix B.2: smaller row groups worsen a projected scan's I/O.
	charged := func(rg int) int64 {
		fs := testFS(t)
		writeRC(t, fs, "/f.rc", Options{RowGroupBytes: rg}, 3000)
		_, st := readAll(t, fs, "/f.rc", 1<<62, []string{"n"})
		return st.IO.TotalChargedBytes()
	}
	small := charged(8 << 10)
	large := charged(128 << 10)
	if small <= large {
		t.Errorf("8KB groups charged %d <= 128KB groups %d; want more waste for smaller groups", small, large)
	}
}

func TestZlibShrinksFile(t *testing.T) {
	fsA, fsB := testFS(t), testFS(t)
	writeRC(t, fsA, "/f", Options{RowGroupBytes: 16 << 10}, 400)
	writeRC(t, fsB, "/f", Options{Codec: "zlib", RowGroupBytes: 16 << 10}, 400)
	if fsB.TotalSize("/f") >= fsA.TotalSize("/f") {
		t.Errorf("zlib RCFile %d >= uncompressed %d", fsB.TotalSize("/f"), fsA.TotalSize("/f"))
	}
}

func TestWriterValidation(t *testing.T) {
	fs := testFS(t)
	f, _ := fs.Create("/v", 0)
	if _, err := NewWriter(f, "/v", serde.Int(), Options{}, nil); err == nil {
		t.Error("non-record schema accepted")
	}
	if _, err := NewWriter(f, "/v", testSchema, Options{Codec: "nope"}, nil); err == nil {
		t.Error("unknown codec accepted")
	}
	w, err := NewWriter(f, "/v", testSchema, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := serde.MustParse(`O { int x }`)
	rec := serde.NewRecord(other)
	rec.Set("x", int32(1))
	if err := w.Append(rec); err == nil {
		t.Error("mismatched record schema accepted")
	}
}

func TestProjectionUnknownColumn(t *testing.T) {
	fs := testFS(t)
	writeRC(t, fs, "/f.rc", Options{}, 10)
	in := &InputFormat{}
	conf := &mapred.JobConf{InputPaths: []string{"/f.rc"}, Scan: &scan.Spec{Columns: []string{"nope"}}}
	splits, _ := in.Splits(fs, conf)
	if _, err := in.Open(fs, conf, splits[0], hdfs.AnyNode, nil); err == nil {
		t.Error("unknown projected column accepted")
	}
}

func TestCorruptMagic(t *testing.T) {
	fs := testFS(t)
	fs.WriteFile("/bad", []byte("XXXXGARBAGE"), 0)
	in := &InputFormat{}
	conf := &mapred.JobConf{}
	if _, err := in.Open(fs, conf, &mapred.FileSplit{Path: "/bad", End: 11}, hdfs.AnyNode, nil); err == nil {
		t.Error("corrupt magic accepted")
	}
}
