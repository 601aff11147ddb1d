package ingest_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/serde"
	"colmr/internal/workload"
)

// walkFiles visits every file under dir in listing order.
func walkFiles(t *testing.T, fs *hdfs.FileSystem, dir string, visit func(fi hdfs.FileInfo)) {
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
	h := sha256.New()
	files := 0
	walkFiles(t, fs, "/live/crawl", func(fi hdfs.FileInfo) {
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		locs, err := fs.BlockLocations(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d %x %v\n", fi.Path, fi.Size, sha256.Sum256(data), locs)
		files++
	})
	tree := fmt.Sprintf("%d files %x", files, h.Sum(nil)[:12])
	if err := ing.GC(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	stats := fmt.Sprintf("gen=%d written=%d raw=%d dict=%d flushed=%d compaction=%d upserts=%d read=%d processed=%d",
		ing.Generation(), st.IO.BytesWritten, st.CPU.RawBytes, st.CPU.DictCompBytes,
		st.FlushedFiles, st.CompactionBytes, st.UpsertsResolved, st.IO.TotalChargedBytes(), st.RecordsProcessed)
	const (
		wantTree  = "456 files e28640cfda645a854f8ea88f"
		wantStats = "gen=17 written=1752714 raw=1683694 dict=131209 flushed=256 compaction=864804 upserts=466 read=774095 processed=1280"
	)
	if tree != wantTree || stats != wantStats {
		t.Errorf("the ingest moved:\n got %s\n     %s\nwant %s\n     %s", tree, stats, wantTree, wantStats)
	}
}

// datasetFiles returns the dataset's manifests and, per live partition of
// the current manifest, its delete files.
func datasetFiles(t *testing.T, fs *hdfs.FileSystem, dataset string) (manifests []string, deletes map[string][]string) {
	t.Helper()
	deletes = map[string][]string{}
	walkFiles(t, fs, dataset, func(fi hdfs.FileInfo) {
		switch name := fi.Name(); {
		case strings.HasPrefix(name, "_manifest."):
			manifests = append(manifests, fi.Path)
		case strings.HasPrefix(name, "_deletes."):
			dir := strings.TrimSuffix(fi.Path, "/"+name)
			deletes[dir] = append(deletes[dir], name)
		}
	})
	return manifests, deletes
}

// checkCollected asserts the post-GC shape: one manifest, at most one delete
// file per partition directory.
func checkCollected(t *testing.T, fs *hdfs.FileSystem, dataset string) {
	t.Helper()
	manifests, deletes := datasetFiles(t, fs, dataset)
	if len(manifests) != 1 {
		t.Errorf("after GC the dataset holds %d manifests %v, want exactly 1", len(manifests), manifests)
	}
	for dir, names := range deletes {
		if len(names) > 1 {
			t.Errorf("after GC partition %s holds %d delete files %v, want at most 1", dir, len(names), names)
		}
	}
}

// TestGCCollectsManifestsAndDeletes: GC leaves one manifest and one delete
// file per partition, never changes what a scan returns, does nothing the
// second time, and works on a dataset that only ever flushed.
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
		manifests, deletes := datasetFiles(t, fs, "/live/crawl")
		superseded := 0
		for _, names := range deletes {
			superseded += len(names) - 1
		}
		if len(manifests) < 2 || superseded == 0 {
			t.Fatalf("CompactEvery %d: the stream left %d manifests and %d superseded delete files; the test needs garbage",
				compactEvery, len(manifests), superseded)
		}
		before := scanRows(t, fs, "/live/crawl", nil, true)
		gen := ing.Generation()
		if err := ing.GC(); err != nil {
			t.Fatal(err)
		}
		checkCollected(t, fs, "/live/crawl")
		if compactEvery == 0 && ing.Generation() != gen {
			t.Errorf("GC of an unchanged layout committed generation %d over %d", ing.Generation(), gen)
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
	const slice, n = 32, 100
	ratio := func(slices int) float64 {
		stream := workload.NewArrivalStream(workload.ArrivalOptions{
			Crawl:           workload.CrawlOptions{Seed: 5, ContentBytes: 200, Inlinks: 2},
			Seed:            5,
			RatePerSec:      50,
			RecrawlFraction: 0.1,
		})
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
		for i := 0; i < slices*slice; i++ {
			a := stream.Next()
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
