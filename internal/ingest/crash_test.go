package ingest_test

import (
	"fmt"
	"path"
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

// TestFlushCommitWritesOneFile: every commit — flush, compaction, GC —
// creates exactly one file, its commit record; no commit adds a file to a
// partition directory that already exists, and no delete file is ever
// written.
func TestFlushCommitWritesOneFile(t *testing.T) {
	arr, crawl := arrivals(1200, 0.35, 11)
	fs := testFS(3)
	opts := ingestOptions("/live/crawl", crawl.Schema(), 64)
	opts.CompactEvery = 3
	ing, err := ingest.New(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	partFiles := map[string]int{} // partition directory -> its files when first seen
	roots, commits := 0, 0
	ing.OnCommit(func(gen int64, _ []string) {
		commits++
		root, files := 0, map[string]int{}
		walkFiles(t, fs, "/live/crawl", func(fi hdfs.FileInfo) {
			dir := path.Dir(fi.Path)
			switch {
			case strings.HasPrefix(fi.Name(), "_deletes."):
				t.Errorf("generation %d: delete file %s", gen, fi.Path)
			case dir == "/live/crawl":
				root++
			default:
				files[dir]++
			}
		})
		if root != roots+1 {
			t.Errorf("generation %d: the commit took the dataset root from %d files to %d, want one more", gen, roots, root)
		}
		if !fs.Exists(fmt.Sprintf("/live/crawl/_manifest.%d", gen)) {
			t.Errorf("generation %d committed no _manifest.%d", gen, gen)
		}
		for dir, n := range files {
			if was, ok := partFiles[dir]; ok && was != n {
				t.Errorf("generation %d: partition %s went from %d files to %d", gen, dir, was, n)
			} else if !ok {
				partFiles[dir] = n
			}
		}
		roots = root
	})
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
	if err := ing.GC(); err != nil {
		t.Fatal(err)
	}
	if manifests, _ := datasetFiles(t, fs, "/live/crawl"); len(manifests) != 1 {
		t.Errorf("after GC the dataset holds %d commit records, want 1", len(manifests))
	}
	if commits < 20 || ing.Stats().UpsertsResolved == 0 {
		t.Fatalf("the stream made %d commits and resolved %d upserts; the test needs more of both", commits, ing.Stats().UpsertsResolved)
	}
}

// crashScript is the ingest the crash sweep replays: a flush after each
// slice of crashSlice arrivals, a compaction after the fourth, GC after the
// fifth.
var crashScript = []string{"flush", "flush", "flush", "flush", "compact", "flush", "gc", "flush"}

const crashSlice = 16

// crashRun is one replay of crashScript over a fresh filesystem.
type crashRun struct {
	fs   *hdfs.FileSystem
	ing  *ingest.Ingester
	arr  []workload.Arrival
	next int // arrivals appended
}

// crashArrivals are the arrivals every replay appends. Replays share them:
// an ingester only reads the records it is handed.
var crashArrivals = sync.OnceValues(func() ([]workload.Arrival, *workload.Crawl) {
	return arrivals(crashSlice*(len(crashScript)+1), 0.35, 13)
})

func newCrashRun(t testing.TB) *crashRun {
	arr, crawl := crashArrivals()
	r := &crashRun{fs: testFS(3), arr: arr}
	opts := ingestOptions("/live/crawl", crawl.Schema(), 1<<20) // flushes are the script's
	opts.BucketMillis = 200                                     // a flush writes two or three partitions
	var err error
	if r.ing, err = ingest.New(r.fs, opts); err != nil {
		t.Fatal(err)
	}
	return r
}

// replay runs the script's first n steps.
func (r *crashRun) replay(t testing.TB, n int) {
	for i := range n {
		if err := r.step(i); err != nil {
			t.Fatalf("script step %d: %v", i, err)
		}
	}
}

// step runs the script's step i.
func (r *crashRun) step(i int) error {
	switch crashScript[i] {
	case "compact":
		return r.ing.Compact()
	case "gc":
		return r.ing.GC()
	}
	if err := r.appendSlice(); err != nil {
		return err
	}
	return r.ing.Flush()
}

// appendSlice appends the next crashSlice arrivals.
func (r *crashRun) appendSlice() error {
	for end := r.next + crashSlice; r.next < end; r.next++ {
		if err := r.ing.Append(r.arr[r.next].Rec); err != nil {
			return err
		}
	}
	return nil
}

// rows scans the committed dataset through a fresh plan, in scan order.
func (r *crashRun) rows() ([]string, error) {
	var mu sync.Mutex
	var rows []string
	job := core.ScanDataset("/live/crawl").DirsPerSplit(1 << 20).
		Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			mu.Lock()
			defer mu.Unlock()
			rows = append(rows, rowKey(v.(*serde.GenericRecord)))
			return nil
		}))
	_, err := mapred.Run(r.fs, job)
	return rows, err
}

// headKind returns the kind byte of the committed generation's record.
func (r *crashRun) headKind() byte {
	data, err := r.fs.ReadFile(fmt.Sprintf("/live/crawl/_manifest.%d", r.ing.Generation()))
	if err != nil || len(data) < 5 {
		return 0
	}
	return data[4]
}

// unnamed returns the dataset's files that its committed layout does not
// name: records but the committed one, files outside its partitions.
func (r *crashRun) unnamed(t testing.TB) []string {
	m, ok, err := core.ReadManifest(r.fs, "/live/crawl")
	if err != nil || !ok {
		t.Fatalf("reading the committed layout: %v %v", ok, err)
	}
	named := map[string]bool{}
	for _, p := range m.Partitions {
		named["/live/crawl/"+p.Dir] = true
	}
	var out []string
	walkFiles(t, r.fs, "/live/crawl", func(fi hdfs.FileInfo) {
		if !named[path.Dir(fi.Path)] && fi.Path != fmt.Sprintf("/live/crawl/_manifest.%d", m.Generation) {
			out = append(out, fi.Path)
		}
	})
	return out
}

// TestFlushCommitCrashSweep fails mutating filesystem calls, one run at a
// time, across a flush committed as an edit, a flush committed as a
// checkpoint, a compaction and a GC. After each failure a fresh scan returns
// exactly the rows of the generation before the step or of the one after
// it; then more arrivals, a flush, a compaction and a GC succeed, the
// dataset holds exactly the stream's final record set, every superseded
// arrival was resolved once, and no file is left that the committed layout
// does not name. The test fails every twentieth data write and every one of
// the last dozen calls, which hold the commit; the benchmark of the same
// name fails every call.
func TestFlushCommitCrashSweep(t *testing.T) {
	t.Parallel()
	checkFlushCommitCrashSweep(t, 20)
}

func BenchmarkFlushCommitCrashSweep(b *testing.B) {
	for range b.N {
		checkFlushCommitCrashSweep(b, 1)
	}
}

// checkFlushCommitCrashSweep fails call k of each step when k is a multiple
// of every or one of the step's last twelve calls.
func checkFlushCommitCrashSweep(t testing.TB, every int) {
	// An unfailed replay: which record each step commits.
	kinds := make([]byte, len(crashScript))
	r := newCrashRun(t)
	for i := range crashScript {
		if err := r.step(i); err != nil {
			t.Fatal(err)
		}
		kinds[i] = r.headKind()
	}
	pick := func(what string, ok func(i int) bool) int {
		for i := 1; i < len(crashScript); i++ {
			if ok(i) {
				return i
			}
		}
		t.Fatalf("the script has no %s; it committed %q", what, kinds)
		return 0
	}
	steps := []int{
		pick("flush committed as an edit", func(i int) bool { return crashScript[i] == "flush" && kinds[i] == 'E' }),
		pick("flush committed as a checkpoint", func(i int) bool { return crashScript[i] == "flush" && kinds[i] == 'C' }),
		pick("compaction", func(i int) bool { return crashScript[i] == "compact" }),
		pick("GC", func(i int) bool { return crashScript[i] == "gc" }),
	}
	for _, s := range steps {
		name := fmt.Sprintf("step %d (%s, record %q)", s, crashScript[s], kinds[s])
		// The step unfailed: the rows before and after it, and its calls.
		r := newCrashRun(t)
		r.replay(t, s)
		before, err := r.rows()
		if err != nil {
			t.Fatal(err)
		}
		calls := r.fs.FailNth(0)
		if err := r.step(s); err != nil {
			t.Fatal(err)
		}
		n := calls()
		after, err := r.rows()
		if err != nil {
			t.Fatal(err)
		}
		if n < 4 {
			t.Fatalf("%s made %d mutating calls", name, n)
		}
		for k := 1; k <= n; k++ {
			if k%every != 0 && k <= n-12 {
				continue
			}
			r := newCrashRun(t)
			r.replay(t, s)
			r.fs.FailNth(k)
			err := r.step(s)
			r.fs.FailNth(0)
			if err == nil {
				t.Errorf("%s: failing call %d of %d went unreported", name, k, n)
			}
			got, err := r.rows()
			if err != nil {
				t.Errorf("%s, call %d failed: the scan after it: %v", name, k, err)
			} else if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
				t.Errorf("%s, call %d failed: the scan returns %d rows, neither the %d before the step nor the %d after it",
					name, k, len(got), len(before), len(after))
			}
			if err := r.appendSlice(); err != nil {
				t.Fatal(err)
			}
			for _, fn := range []func() error{r.ing.Flush, r.ing.Compact, r.ing.GC} {
				if err := fn(); err != nil {
					t.Fatalf("%s, call %d failed: the commits after it: %v", name, k, err)
				}
			}
			var want []string
			for _, rec := range finalSet(r.arr[:r.next]) {
				want = append(want, rowKey(rec))
			}
			if got, err := r.rows(); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, call %d failed: the sealed dataset returns %d rows (%v), the stream's final set has %d", name, k, len(got), err, len(want))
			}
			if up := r.ing.Stats().UpsertsResolved; up != int64(r.next-len(want)) {
				t.Errorf("%s, call %d failed: %d upserts resolved over %d arrivals of %d keys", name, k, up, r.next, len(want))
			}
			if left := r.unnamed(t); len(left) > 0 {
				t.Errorf("%s, call %d failed: GC left %d files no layout names: %v", name, k, len(left), left[:min(len(left), 3)])
			}
		}
	}
}
