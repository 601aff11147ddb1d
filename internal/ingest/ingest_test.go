package ingest_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colmr/internal/catalog"
	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/ingest"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/serve"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

func testFS(nodes int) *hdfs.FileSystem {
	cfg := sim.DefaultCluster()
	cfg.Nodes = nodes
	cfg.BlockSize = 1 << 16
	cfg.TransferUnit = 1 << 12
	fs := hdfs.New(cfg, 1)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	return fs
}

// arrivals replays a deterministic crawl stream: n arrivals, a recrawl
// fraction revisiting seen URLs with fresh volatile columns.
func arrivals(n int, recrawl float64, seed int64) ([]workload.Arrival, *workload.Crawl) {
	s := workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl:           workload.CrawlOptions{Seed: seed, ContentBytes: 200, Inlinks: 2},
		Seed:            seed,
		RatePerSec:      50,
		RecrawlFraction: recrawl,
	})
	out := make([]workload.Arrival, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out, s.Crawl()
}

// finalSet reduces an arrival sequence to the record set a finished ingest
// holds: the latest version of each URL, ordered by last arrival — the
// ingester's upsert rule.
func finalSet(arr []workload.Arrival) []*serde.GenericRecord {
	order := make([]*serde.GenericRecord, 0, len(arr))
	byKey := make(map[int64]int)
	for _, a := range arr {
		if p, ok := byKey[a.Index]; ok {
			order[p] = nil
		}
		order = append(order, a.Rec)
		byKey[a.Index] = len(order) - 1
	}
	out := order[:0]
	for _, r := range order {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

func ingestOptions(dataset string, schema *serde.Schema, memtable int) ingest.Options {
	return ingest.Options{
		Dataset:         dataset,
		Schema:          schema,
		Key:             "url",
		TimeColumn:      "fetchTime",
		BucketMillis:    4000, // a few buckets per stream second at 50/s
		MemtableRecords: memtable,
		Load: core.LoadOptions{
			SplitRecords: 64,
			PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL}},
		},
	}
}

func bulkLoad(t testing.TB, fs *hdfs.FileSystem, dataset string, schema *serde.Schema, recs []*serde.GenericRecord) {
	t.Helper()
	w, err := core.NewWriter(fs, dataset, schema, core.LoadOptions{
		SplitRecords: 64,
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// rowKey renders one record's full content deterministically (maps are
// summarized by stable fields; content by a hash), so slice equality is
// record-set-and-order equality.
func rowKey(rec *serde.GenericRecord) string {
	url, _ := rec.Get("url")
	src, _ := rec.Get("srcUrl")
	ft, _ := rec.Get("fetchTime")
	inl, _ := rec.Get("inlink")
	md, _ := rec.Get("metadata")
	content, _ := rec.Get("content")
	h := fnv.New64a()
	h.Write(content.([]byte))
	lm := md.(map[string]any)["last-modified"]
	return fmt.Sprintf("%v|%v|%v|%d|%v|%d|%x",
		url, src, ft, len(inl.([]any)), lm, len(content.([]byte)), h.Sum64())
}

// scanRows runs a full-record scan as one map task (DirsPerSplit pinned
// high so row order is the dataset's scan order).
func scanRows(t testing.TB, fs *hdfs.FileSystem, dataset string, pred scan.Predicate, vectorize bool) []string {
	t.Helper()
	var mu sync.Mutex
	var rows []string
	job := core.ScanDataset(dataset).
		Where(pred).
		Vectorize(vectorize).
		DirsPerSplit(1 << 20).
		Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			mu.Lock()
			defer mu.Unlock()
			rows = append(rows, rowKey(v.(*serde.GenericRecord)))
			return nil
		}))
	if _, err := mapred.Run(fs, job); err != nil {
		t.Fatal(err)
	}
	return rows
}

func aggRows(t testing.TB, fs *hdfs.FileSystem, dataset, spec string, pred scan.Predicate, vectorize bool) string {
	t.Helper()
	agg, err := scan.ParseAggregate(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := core.ScanDataset(dataset).Where(pred).Vectorize(vectorize).Aggregate(agg).AggJob()
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v", res.Agg.Rows())
}

// TestIngestCompactEquivalence is the subsystem's property test: an
// ingested-then-compacted dataset answers every query — scans and
// aggregates, vectorized and scalar — identically to bulk-loading the same
// final record set, across random arrival orders, recrawl overlaps, and
// compaction points. The test runs five trials of 220 arrivals; the
// benchmark of the same name runs them at 400.
func TestIngestCompactEquivalence(t *testing.T) {
	t.Parallel()
	for trial := range 5 {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) { checkIngestCompactTrial(t, trial, 220) })
	}
}

func BenchmarkIngestCompactEquivalence(b *testing.B) {
	for range b.N {
		for trial := range 5 {
			checkIngestCompactTrial(b, trial, 400)
		}
	}
}

func checkIngestCompactTrial(t testing.TB, trial, n int) {
	rng := rand.New(rand.NewSource(int64(900 + trial)))
	recrawl := []float64{0, 0.2, 0.45}[trial%3]
	arr, crawl := arrivals(n, recrawl, int64(7000+trial))

	fsI := testFS(3)
	opts := ingestOptions("/live/crawl", crawl.Schema(), 32+rng.Intn(64))
	ing, err := ingest.New(fsI, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Random mid-stream flush/compaction points.
	flushAt := map[int]bool{}
	compactAt := map[int]bool{}
	for i := 0; i < 3; i++ {
		flushAt[rng.Intn(len(arr))] = true
		compactAt[rng.Intn(len(arr))] = true
	}
	for i, a := range arr {
		if err := ing.Append(a.Rec); err != nil {
			t.Fatal(err)
		}
		if flushAt[i] {
			if err := ing.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if compactAt[i] {
			if err := ing.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if trial%2 == 0 {
		if err := ing.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := ing.GC(); err != nil {
			t.Fatal(err)
		}
	}

	final := finalSet(arr)
	fsB := testFS(3)
	bulkLoad(t, fsB, "/bulk/crawl", crawl.Schema(), final)

	if got := ing.Stats().UpsertsResolved; got != int64(len(arr)-len(final)) {
		t.Errorf("UpsertsResolved = %d, want %d", got, len(arr)-len(final))
	}

	mid := int64(1293840000000 + 2000)
	preds := []scan.Predicate{
		nil,
		scan.HasPrefix("url", "http://www.ibm.com"),
		scan.Gt("fetchTime", mid),
	}
	for pi, pred := range preds {
		for _, vec := range []bool{true, false} {
			got := scanRows(t, fsI, "/live/crawl", pred, vec)
			want := scanRows(t, fsB, "/bulk/crawl", pred, vec)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pred %d vec=%v: ingest scan (%d rows) != bulk scan (%d rows)",
					pi, vec, len(got), len(want))
			}
			ga := aggRows(t, fsI, "/live/crawl", "count,count(url),min(fetchTime),max(fetchTime),sum(fetchTime),avg(fetchTime)", pred, vec)
			wa := aggRows(t, fsB, "/bulk/crawl", "count,count(url),min(fetchTime),max(fetchTime),sum(fetchTime),avg(fetchTime)", pred, vec)
			if ga != wa {
				t.Fatalf("pred %d vec=%v: ingest agg %s != bulk agg %s", pi, vec, ga, wa)
			}
		}
	}
}

// TestIngestSharedScanEquivalence runs a shared batch (two scans + an
// aggregate co-scheduled on one cursor set) over an ingested dataset and
// checks every member's result against solo runs on the bulk-loaded
// equivalent.
func TestIngestSharedScanEquivalence(t *testing.T) {
	arr, crawl := arrivals(300, 0.35, 4242)
	fsI := testFS(3)
	ing, err := ingest.New(fsI, ingestOptions("/live/crawl", crawl.Schema(), 48))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arr {
		if err := ing.Append(a.Rec); err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			if err := ing.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	fsB := testFS(3)
	bulkLoad(t, fsB, "/bulk/crawl", crawl.Schema(), finalSet(arr))

	pred1 := scan.HasPrefix("url", "http://www.ibm.com")
	pred2 := scan.Gt("fetchTime", int64(1293840000000+3000))

	var mu sync.Mutex
	rows := map[int][]string{}
	collect := func(member int) mapred.Mapper {
		return mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			mu.Lock()
			defer mu.Unlock()
			rows[member] = append(rows[member], rowKey(v.(*serde.GenericRecord)))
			return nil
		})
	}
	agg, err := scan.ParseAggregate("count,avg(fetchTime)")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*mapred.Job{
		core.ScanDataset("/live/crawl").Where(pred1).DirsPerSplit(1 << 20).Job(collect(0)),
		core.ScanDataset("/live/crawl").Where(pred2).DirsPerSplit(1 << 20).Job(collect(1)),
		core.ScanDataset("/live/crawl").Where(pred2).Aggregate(agg).AggJob(),
	}
	br, err := mapred.RunBatch(fsI, jobs...)
	if err != nil {
		t.Fatal(err)
	}

	want0 := scanRows(t, fsB, "/bulk/crawl", pred1, true)
	want1 := scanRows(t, fsB, "/bulk/crawl", pred2, true)
	sort.Strings(rows[0])
	sort.Strings(rows[1])
	sortedCopy := func(s []string) []string {
		c := append([]string(nil), s...)
		sort.Strings(c)
		return c
	}
	if !reflect.DeepEqual(rows[0], sortedCopy(want0)) {
		t.Errorf("shared member 0: %d rows, want %d", len(rows[0]), len(want0))
	}
	if !reflect.DeepEqual(rows[1], sortedCopy(want1)) {
		t.Errorf("shared member 1: %d rows, want %d", len(rows[1]), len(want1))
	}
	gotAgg := fmt.Sprintf("%v", br.Results[2].Agg.Rows())
	wantAgg := aggRows(t, fsB, "/bulk/crawl", "count,avg(fetchTime)", pred2, true)
	if gotAgg != wantAgg {
		t.Errorf("shared agg member: %s, want %s", gotAgg, wantAgg)
	}
}

// TestIngestConcurrentServe drives a colserve server and an ingester over
// the same dataset at once: queries race flush and compaction commits. The
// manifest protocol must keep every query answerable (no torn layouts, no
// stale caches, no vanished files), and the live row count — distinct URLs
// committed so far — must be nondecreasing across sequential queries.
func TestIngestConcurrentServe(t *testing.T) {
	arr, crawl := arrivals(600, 0.3, 777)
	fs := testFS(3)
	srv := serve.New(fs, serve.Options{CacheBytes: 1 << 20})
	defer srv.Close()

	opts := ingestOptions("/live/crawl", crawl.Schema(), 40)
	opts.CompactEvery = 3
	opts.Session = srv.Session()
	ing, err := ingest.New(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeLive(ing)
	var commits atomic.Int64
	ing.OnCommit(func(int64, []string) { commits.Add(1) })

	agg, err := scan.ParseAggregate("count")
	if err != nil {
		t.Fatal(err)
	}
	countQuery := func() int64 {
		t.Helper()
		tk, err := srv.Enqueue("reader", core.ScanDataset("/live/crawl").Aggregate(agg).AggJob())
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("query racing ingest failed: %v", err)
		}
		return res.Agg.Rows()[0].Values[0].(int64)
	}

	done := make(chan error, 1)
	go func() {
		for _, a := range arr {
			if err := ing.Append(a.Rec); err != nil {
				done <- err
				return
			}
		}
		done <- ing.Flush()
	}()

	last := int64(-1)
	queries := 0
	writing := true
	for writing {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
			if ing.Generation() == 0 {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			n := countQuery()
			if n < last {
				t.Fatalf("live count went backwards: %d after %d", n, last)
			}
			last = n
			queries++
		}
	}
	if queries == 0 || commits.Load() == 0 {
		t.Fatalf("race never materialized: %d queries, %d commits", queries, commits.Load())
	}
	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ing.GC(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(finalSet(arr)))
	if got := countQuery(); got != want {
		t.Fatalf("final live count %d, want %d distinct URLs", got, want)
	}
}

// TestIngestServeCatalogFollowsCommits keeps a scan server's metadata catalog
// warm across the whole life of a live dataset — flushes adding partitions,
// recrawls replacing delete files, compaction retiring directories, GC
// removing them — and asks the same filtered queries at every stage, twice
// (the second answer comes from the catalog). Every answer must be the one
// the files committed so far give: a bulk load of the same record set,
// scanned without a session. Nothing is invalidated for correctness; what
// ServeLive's hook does is drop the retired directories' entries, which the
// test checks by finding nothing left to drop. The test streams 288
// arrivals; the benchmark of the same name streams 480.
func TestIngestServeCatalogFollowsCommits(t *testing.T) {
	checkIngestServeCatalogFollowsCommits(t, 288)
}

func BenchmarkIngestServeCatalogFollowsCommits(b *testing.B) {
	for range b.N {
		checkIngestServeCatalogFollowsCommits(b, 480)
	}
}

// checkIngestServeCatalogFollowsCommits streams n arrivals, a multiple of
// the 96-arrival flush chunk.
func checkIngestServeCatalogFollowsCommits(t testing.TB, n int) {
	const chunk = 96
	arr, crawl := arrivals(n, 0.35, 4242)
	fs := testFS(3)
	srv := serve.New(fs, serve.Options{CacheBytes: 1 << 20})
	defer srv.Close()
	cat := catalog.Of(fs)

	opts := ingestOptions("/live/crawl", crawl.Schema(), 40)
	opts.Session = srv.Session()
	ing, err := ingest.New(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeLive(ing)
	var retired []string
	ing.OnCommit(func(_ int64, dirs []string) { retired = append(retired, dirs...) })

	agg, err := scan.ParseAggregate("count,min(fetchTime),max(fetchTime)")
	if err != nil {
		t.Fatal(err)
	}
	mid := int64(1293840000000 + 2000)
	preds := []scan.Predicate{
		scan.Gt("fetchTime", mid),
		scan.Le("fetchTime", mid),
		scan.HasPrefix("url", "http://www.ibm.com"),
	}
	served := func(pred scan.Predicate) ([]string, string) {
		t.Helper()
		var mu sync.Mutex
		var rows []string
		scanJob := core.ScanDataset("/live/crawl").Where(pred).DirsPerSplit(1 << 20).
			Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
				mu.Lock()
				defer mu.Unlock()
				rows = append(rows, rowKey(v.(*serde.GenericRecord)))
				return nil
			}))
		aggJob := core.ScanDataset("/live/crawl").Where(pred).Aggregate(agg).AggJob()
		var tickets []*serve.Ticket
		for _, job := range []*mapred.Job{scanJob, aggJob} {
			tk, err := srv.Enqueue("reader", job)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		var aggRes *mapred.Result
		for _, tk := range tickets {
			res, err := tk.Wait()
			if err != nil {
				t.Fatalf("served query: %v", err)
			}
			aggRes = res
		}
		return rows, fmt.Sprintf("%v", aggRes.Agg.Rows())
	}
	check := func(stage string, committed int) {
		t.Helper()
		final := finalSet(arr[:committed])
		ref := testFS(3)
		bulkLoad(t, ref, "/bulk/crawl", crawl.Schema(), final)
		for pi, pred := range preds {
			wantRows := scanRows(t, ref, "/bulk/crawl", pred, true)
			wantAgg := aggRows(t, ref, "/bulk/crawl", "count,min(fetchTime),max(fetchTime)", pred, true)
			for pass := 0; pass < 2; pass++ {
				rows, aggGot := served(pred)
				if !reflect.DeepEqual(rows, wantRows) || aggGot != wantAgg {
					t.Fatalf("%s, predicate %d, pass %d: served %d rows and %s; the %d committed records hold %d rows and %s",
						stage, pi, pass, len(rows), aggGot, len(final), len(wantRows), wantAgg)
				}
			}
		}
	}

	for at := 0; at < n; at += chunk {
		for _, a := range arr[at : at+chunk] {
			if err := ing.Append(a.Rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after the flush at %d", at+chunk), at+chunk)
	}
	warm := cat.Len()
	if warm == 0 {
		t.Fatal("the filesystem's catalog is empty after serving filtered queries")
	}
	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(retired) == 0 {
		t.Fatal("compaction retired nothing")
	}
	left := cat.Len()
	for _, dir := range retired {
		cat.Invalidate(dir)
	}
	if cat.Len() != left {
		t.Errorf("%d entries of retired directories were still catalogued after the commit hook ran", left-cat.Len())
	}
	if left >= warm {
		t.Errorf("%d entries before compaction retired %d directories, %d after", warm, len(retired), left)
	}
	check("after compaction", n)
	if err := ing.GC(); err != nil {
		t.Fatal(err)
	}
	check("after GC", n)

	srv.Session().Invalidate("/live/crawl")
	if cat.Len() != 0 {
		t.Errorf("%d entries left after invalidating the dataset", cat.Len())
	}
	check("after Invalidate", n)
}

// TestCompactDropsRetiredCatalogEntries: an ingester with no session leaves
// no catalogued metadata of the partitions it retires. Queries and the
// compaction's own scan fill the filesystem's catalog; compaction drops the
// retired directories' entries, so after GC none is left to find.
func TestCompactDropsRetiredCatalogEntries(t *testing.T) {
	const chunk = 96
	arr, crawl := arrivals(2*chunk, 0.35, 4243)
	fs := testFS(3)
	ing, err := ingest.New(fs, ingestOptions("/live/crawl", crawl.Schema(), 40))
	if err != nil {
		t.Fatal(err)
	}
	var retired []string
	ing.OnCommit(func(_ int64, dirs []string) { retired = append(retired, dirs...) })
	pred := scan.Gt("fetchTime", int64(1293840000000+2000))
	for at := 0; at < len(arr); at += chunk {
		for _, a := range arr[at : at+chunk] {
			if err := ing.Append(a.Rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		scanRows(t, fs, "/live/crawl", pred, true)
	}
	cat := catalog.Of(fs)
	warm := cat.Len()
	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ing.GC(); err != nil {
		t.Fatal(err)
	}
	if len(retired) == 0 {
		t.Fatal("compaction retired nothing")
	}
	scanRows(t, fs, "/live/crawl", pred, true)
	left := cat.Len()
	if warm == 0 || left == 0 {
		t.Fatalf("%d entries before compaction, %d after: the scans catalogued nothing", warm, left)
	}
	for _, dir := range retired {
		cat.Invalidate(dir)
	}
	if cat.Len() != left {
		t.Errorf("%d entries of retired directories were still catalogued after compaction and GC", left-cat.Len())
	}
}

// TestIngestFreshPartitionCounters checks the ingest-side accounting:
// flushes produce files and fresh partitions that scans observe via
// merge-on-read, and compaction retires them.
func TestIngestFreshPartitionCounters(t *testing.T) {
	arr, crawl := arrivals(200, 0.3, 99)
	fs := testFS(3)
	ing, err := ingest.New(fs, ingestOptions("/live/crawl", crawl.Schema(), 50))
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
	if ing.Stats().FlushedFiles == 0 {
		t.Fatal("no flushed files counted")
	}
	if ing.Generation() == 0 {
		t.Fatal("no manifest committed")
	}

	var stats sim.TaskStats
	pre := scanRows(t, fs, "/live/crawl", nil, true)
	job := core.ScanDataset("/live/crawl").DirsPerSplit(1 << 20).
		Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	stats = res.Total
	if stats.FreshPartitionsScanned == 0 {
		t.Error("scan over uncompacted dataset read no fresh partitions")
	}

	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	if ing.Stats().CompactionBytes == 0 {
		t.Error("compaction wrote no bytes")
	}
	res, err = mapred.Run(fs, core.ScanDataset("/live/crawl").DirsPerSplit(1<<20).
		Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil })))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.FreshPartitionsScanned != 0 {
		t.Errorf("compacted dataset still scanned %d fresh partitions", res.Total.FreshPartitionsScanned)
	}
	post := scanRows(t, fs, "/live/crawl", nil, true)
	if !reflect.DeepEqual(pre, post) {
		t.Error("compaction changed scan results")
	}
}
