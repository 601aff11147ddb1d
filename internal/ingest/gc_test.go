package ingest_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/workload"
)

// walkFiles visits every file under dir in listing order.
func walkFiles(t testing.TB, fs *hdfs.FileSystem, dir string, visit func(fi hdfs.FileInfo)) {
	t.Helper()
	infos, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if fi.IsDir {
			walkFiles(t, fs, fi.Path, visit)
		} else {
			visit(fi)
		}
	}
}

// TestIngestPinnedStatsAndTree replays one arrival sequence through flushes
// and compactions and compares what the ingester wrote (every file's bytes
// and block placement, before GC) and what it was charged (Stats, after GC)
// with literals recorded from the commit before the write path and GC were
// rearranged.
func TestIngestPinnedStatsAndTree(t *testing.T) {
	arr, crawl := arrivals(1500, 0.3, 41)
	fs := testFS(4)
	opts := ingestOptions("/live/crawl", crawl.Schema(), 128)
	opts.CompactEvery = 3
	ing, err := ingest.New(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		if err := ing.Append(a.Rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	// Column and schema files are hashed apart from the commit metadata
	// (manifests and delete files), so a change to how commits are recorded
	// cannot hide a moved data byte. Block placement is hashed on its own:
	// the namenode balances replicas by the bytes each node stores, so
	// metadata files of another size move where later blocks go without
	// moving a byte of them.
	dataHash, metaHash, placeHash := sha256.New(), sha256.New(), sha256.New()
	dataFiles, metaFiles := 0, 0
	walkFiles(t, fs, "/live/crawl", func(fi hdfs.FileInfo) {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		locs, err := fs.BlockLocations(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		h := dataHash
		if name := fi.Name(); strings.HasPrefix(name, "_manifest.") || strings.HasPrefix(name, "_deletes.") {
			h = metaHash
			metaFiles++
		} else {
			dataFiles++
			fmt.Fprintf(placeHash, "%s %v\n", fi.Path, locs)
		}
		fmt.Fprintf(h, "%s %d %x\n", fi.Path, fi.Size, sha256.Sum256(data))
	})
	tree := fmt.Sprintf("%d files %x", dataFiles, dataHash.Sum(nil)[:12])
	meta := fmt.Sprintf("%d files %x placement %x", metaFiles, metaHash.Sum(nil)[:12], placeHash.Sum(nil)[:12])
	if err := ing.GC(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	stats := fmt.Sprintf("gen=%d written=%d raw=%d dict=%d flushed=%d compaction=%d upserts=%d read=%d processed=%d",
		ing.Generation(), st.IO.BytesWritten, st.CPU.RawBytes, st.CPU.DictCompBytes,
		st.FlushedFiles, st.CompactionBytes, st.UpsertsResolved, st.IO.TotalChargedBytes(), st.RecordsProcessed)
	const (
		wantTree  = "336 files 5e764d90984929ad56758b5d"
		wantMeta  = "16 files c448ba29f8a7eb189919d1aa placement 58ec8a1bce1005c97d6a66e4"
		wantStats = "gen=17 written=1752714 raw=1683694 dict=131209 flushed=152 compaction=864804 upserts=466 read=774095 processed=1280"
	)
	if tree != wantTree {
		t.Errorf("the ingest's column and schema files moved:\n got %s\nwant %s", tree, wantTree)
	}
	if meta != wantMeta || stats != wantStats {
		t.Errorf("the ingest's commits moved:\n got %s\n     %s\nwant %s\n     %s", meta, stats, wantMeta, wantStats)
	}
}

// datasetFiles returns the dataset's commit records and how many delete
// files it holds — none since deletes moved into the commit records.
func datasetFiles(t *testing.T, fs *hdfs.FileSystem, dataset string) (manifests []string, deleteFiles int) {
	t.Helper()
	walkFiles(t, fs, dataset, func(fi hdfs.FileInfo) {
		switch name := fi.Name(); {
		case strings.HasPrefix(name, "_manifest."):
			manifests = append(manifests, fi.Path)
		case strings.HasPrefix(name, "_deletes."):
			deleteFiles++
		}
	})
	return manifests, deleteFiles
}

// checkCollected asserts the post-GC shape: one commit record, and no
// delete file.
func checkCollected(t *testing.T, fs *hdfs.FileSystem, dataset string) {
	t.Helper()
	manifests, deleteFiles := datasetFiles(t, fs, dataset)
	if len(manifests) != 1 {
		t.Errorf("after GC the dataset holds %d manifests %v, want exactly 1", len(manifests), manifests)
	}
	if deleteFiles != 0 {
		t.Errorf("the dataset holds %d delete files; deletes live in the commit records", deleteFiles)
	}
}

// TestGCCollectsManifestsAndDeletes: GC leaves one commit record (and the
// ingester never writes a delete file), never changes what a scan returns,
// commits at most one checkpoint, does nothing the second time, and works on
// a dataset that only ever flushed.
func TestGCCollectsManifestsAndDeletes(t *testing.T) {
	for _, compactEvery := range []int{3, 0} {
		arr, crawl := arrivals(900, 0.35, 7)
		fs := testFS(3)
		opts := ingestOptions("/live/crawl", crawl.Schema(), 64)
		opts.CompactEvery = compactEvery
		ing, err := ingest.New(fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ing.GC(); err != nil || ing.Generation() != 0 {
			t.Fatalf("GC before the first commit: generation %d, %v", ing.Generation(), err)
		}
		for _, a := range arr {
			if err := ing.Append(a.Rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		manifests, deleteFiles := datasetFiles(t, fs, "/live/crawl")
		if len(manifests) < 2 || ing.Stats().UpsertsResolved == 0 {
			t.Fatalf("CompactEvery %d: the stream left %d manifests and resolved %d upserts; the test needs garbage and deletes",
				compactEvery, len(manifests), ing.Stats().UpsertsResolved)
		}
		if deleteFiles != 0 {
			t.Errorf("CompactEvery %d: the stream wrote %d delete files", compactEvery, deleteFiles)
		}
		before := scanRows(t, fs, "/live/crawl", nil, true)
		gen := ing.Generation()
		if err := ing.GC(); err != nil {
			t.Fatal(err)
		}
		checkCollected(t, fs, "/live/crawl")
		if g := ing.Generation(); g > gen+1 {
			t.Errorf("GC committed generations %d..%d; one checkpoint at most", gen+1, g)
		}
		if after := scanRows(t, fs, "/live/crawl", nil, true); !reflect.DeepEqual(before, after) {
			t.Errorf("CompactEvery %d: GC changed what a full scan returns (%d rows before, %d after)", compactEvery, len(before), len(after))
		}

		// A second GC has nothing to do: same generation, same tree.
		gen, size := ing.Generation(), fs.TreeSize("/live/crawl")
		if err := ing.GC(); err != nil {
			t.Fatal(err)
		}
		if ing.Generation() != gen || fs.TreeSize("/live/crawl") != size {
			t.Errorf("CompactEvery %d: a second GC moved generation %d -> %d or tree %d -> %d bytes",
				compactEvery, gen, ing.Generation(), size, fs.TreeSize("/live/crawl"))
		}

		// The ingester keeps working after a sweep.
		more, _ := arrivals(1000, 0.35, 7)
		for _, a := range more[900:] {
			if err := ing.Append(a.Rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ing.GC(); err != nil {
			t.Fatal(err)
		}
		checkCollected(t, fs, "/live/crawl")
		want := make([]string, 0, len(more))
		for _, rec := range finalSet(more) {
			want = append(want, rowKey(rec))
		}
		if got := scanRows(t, fs, "/live/crawl", nil, true); !reflect.DeepEqual(got, want) {
			t.Errorf("CompactEvery %d: after GC and further flushes the scan returns %d rows, the stream's final set has %d", compactEvery, len(got), len(want))
		}
	}
}

// TestGCStoredBytesFlat: stored bytes per user byte must not depend on how
// many commits the dataset has seen. One arrival stream, sealed after N and
// after 3N slices. What still separates the two is not metadata: a recrawl
// of a page that compaction has already rewritten leaves the old row in its
// compacted partition, and the share of recrawls that land there rises
// with the stream's length (towards all of them). N is chosen past the knee
// of that curve; before GC collected manifests and delete files the same
// two datasets stood at 1.42 and 1.78.
func TestGCStoredBytesFlat(t *testing.T) {
	t.Parallel()
	const slice, n = 32, 100
	stream := workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl:           workload.CrawlOptions{Seed: 5, ContentBytes: 200, Inlinks: 2},
		Seed:            5,
		RatePerSec:      50,
		RecrawlFraction: 0.1,
	})
	// Both runs take their arrivals from one stream: the short one its first
	// n slices.
	arr := make([]workload.Arrival, 3*n*slice)
	for i := range arr {
		arr[i] = stream.Next()
	}
	ratio := func(slices int) float64 {
		fs := testFS(3)
		opts := ingestOptions("/live/crawl", stream.Crawl().Schema(), slice)
		opts.CompactEvery = 4
		opts.Load.SplitRecords = 2048
		ing, err := ingest.New(fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		latest := map[string]int64{}
		var buf []byte
		for _, a := range arr[:slices*slice] {
			if err := ing.Append(a.Rec); err != nil {
				t.Fatal(err)
			}
			buf, _ = serde.AppendRecord(buf[:0], a.Rec)
			url, _ := a.Rec.Get("url")
			latest[url.(string)] = int64(len(buf))
		}
		for _, step := range []func() error{ing.Flush, ing.Compact, ing.GC} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		var user int64
		for _, size := range latest {
			user += size
		}
		return float64(fs.TreeSize("/live/crawl")) / float64(user)
	}
	short, long := ratio(n), ratio(3*n)
	if diff := (long - short) / short; diff > 0.01 || diff < -0.01 {
		t.Errorf("stored bytes per user byte: %.4f after %d slices, %.4f after %d — differ by %.2f%%, want < 1%%",
			short, n, long, 3*n, 100*diff)
	}
}

// TestCompactFailureLeavesNoOutput: a compaction whose job fails — here on a
// fresh partition's corrupt column file — removes the directory it was
// writing (nothing names it, so GC never would), commits nothing, and
// leaves what a scan returns as it was.
func TestCompactFailureLeavesNoOutput(t *testing.T) {
	arr, crawl := arrivals(600, 0.3, 43)
	fs := testFS(4)
	ing, err := ingest.New(fs, ingestOptions("/live/crawl", crawl.Schema(), 128))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		if err := ing.Append(a.Rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	urls := func() []string {
		var mu sync.Mutex
		var rows []string
		job := core.ScanDataset("/live/crawl").Columns("url", "fetchTime").DirsPerSplit(1 << 20).
			Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
				rec := v.(*serde.GenericRecord)
				mu.Lock()
				defer mu.Unlock()
				rows = append(rows, fmt.Sprint(rec.GetAt(0), rec.GetAt(1)))
				return nil
			}))
		if _, err := mapred.Run(fs, job); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	before, gen := urls(), ing.Generation()

	var victim string
	walkFiles(t, fs, "/live/crawl", func(fi hdfs.FileInfo) {
		if victim == "" && strings.Contains(fi.Path, "/seq-") && fi.Name() == "content" {
			victim = fi.Path
		}
	})
	data, err := fs.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data[:len(data)/2] {
		data[i] = 0xff
	}
	if err := fs.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(victim, data, hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}

	if err := ing.Compact(); err == nil {
		t.Fatalf("Compact over a corrupt %s succeeded", victim)
	}
	if fs.Exists("/live/crawl/c0") {
		t.Error("the failed compaction left /live/crawl/c0 behind")
	}
	if g := ing.Generation(); g != gen {
		t.Errorf("the failed compaction moved the generation %d -> %d", gen, g)
	}
	if after := urls(); !reflect.DeepEqual(after, before) {
		t.Errorf("after the failed compaction a scan returns %d rows, before it %d", len(after), len(before))
	}
}
