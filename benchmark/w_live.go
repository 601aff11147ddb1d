package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

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

// ---- serve_burst --------------------------------------------------------

// serveBurst is one dashboard refresh through the scan server: a client
// enqueues eight queries at once for three rotating tenants and waits for
// all eight tickets. The server's sharing window is 5 ms on the wall clock
// (colserve's 50 ms default would make the timer two thirds of the op) and
// its 64 MB session cache holds the ~7 MB of columns the queries touch many
// times over: this is the workload that fits its cache.
type serveBurst struct {
	stored
	n   int64
	srv *serve.Server

	// Oracle. int0 is clustered over [1,10000], so cnt/lens prefix sums
	// answer any int0 range: rows with int0 <= v, and their summed
	// len(str0).
	cnt, lens []int64
	aggs      []serveAgg
	rngs      []*rand.Rand // one per client, seeded from the run seed
}

type serveAgg struct {
	agg    *scan.Aggregate
	pred   scan.Predicate
	oracle []string
}

const (
	serveWindow     = 0.005
	serveCacheBytes = 64 << 20
)

var serveTenants = []string{"ads", "search", "mail"}

func setupServeBurst(cfg config) (instance, error) {
	w := &serveBurst{
		stored: stored{fs: newFS(cfg.seed), dir: "/serve"}, n: cfg.rows(80_000),
		cnt: make([]int64, 10002), lens: make([]int64, 10002),
	}
	type acc struct{ count, sum, min, max int64 }
	groups := make([]acc, tagCycle)
	var tail acc
	var err error
	w.ld, err = loadCIF(w.fs, newPlanted(cfg.seed, w.n, true, false, true), w.n,
		map[string]core.LoadOptions{w.dir: skipListLoad(w.n, 16)},
		func(i int64, rec *serde.GenericRecord) {
			int0 := rec.GetAt(fInt0).(int32)
			int1 := int64(rec.GetAt(fInt1).(int32))
			w.cnt[int0]++
			w.lens[int0] += int64(len(rec.GetAt(fStr0).(string)))
			if int0 <= 2500 {
				g := &groups[i%tagCycle]
				g.count++
				g.sum += int1
			}
			if int0 > 9000 {
				if tail.count == 0 || int1 < tail.min {
					tail.min = int1
				}
				if tail.count == 0 || int1 > tail.max {
					tail.max = int1
				}
				tail.count++
			}
		})
	if err != nil {
		return nil, err
	}
	for v := 1; v < len(w.cnt); v++ {
		w.cnt[v] += w.cnt[v-1]
		w.lens[v] += w.lens[v-1]
	}
	var groupRows []string
	for t, g := range groups {
		if g.count > 0 {
			groupRows = append(groupRows, fmt.Sprintf("%s|%d|%d", tag(int64(t)), g.count, g.sum))
		}
	}
	for _, d := range []struct {
		agg    string
		pred   scan.Predicate
		oracle []string
	}{
		{"count,sum(int1) group by str1", scan.Le("int0", int32(2500)), groupRows},
		{"count,min(int1),max(int1)", scan.Gt("int0", int32(9000)),
			[]string{fmt.Sprintf("<nil>|%d|%d|%d", tail.count, tail.min, tail.max)}},
	} {
		agg, err := scan.ParseAggregate(d.agg)
		if err != nil {
			return nil, err
		}
		w.aggs = append(w.aggs, serveAgg{agg, d.pred, d.oracle})
	}
	for c := 0; c < maxClients(); c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(cfg.seed*31+int64(c))))
	}
	w.srv = w.newServer(serveWindow)
	return w, nil
}

// newServer starts a scan server over the workload's store.
func (w *serveBurst) newServer(window float64) *serve.Server {
	return serve.New(w.fs, serve.Options{Window: window, MaxBatches: 2, CacheBytes: serveCacheBytes})
}

// burstQuery is one of a refresh's eight queries with its expected answer.
type burstQuery struct {
	job *mapred.Job
	// record scans: expected rows and summed len(str0), and the mapper's sum
	rows, lens int64
	sum        *atomic.Int64
	// aggregates: expected rendered rows
	agg []string
}

// burst builds a refresh: three nested-prefix record scans (they overlap,
// so a shared batch reads the union once), three narrow point ranges drawn
// from the client's generator (one split, ~100 rows: all planning and
// footer parsing), and two grouped aggregates.
func (w *serveBurst) burst(client int) []burstQuery {
	rng := w.rngs[client]
	var qs []burstQuery
	scanQ := func(lo, hi int32) burstQuery {
		q := burstQuery{sum: new(atomic.Int64)}
		q.rows = w.cnt[hi] - w.cnt[lo-1]
		q.lens = w.lens[hi] - w.lens[lo-1]
		pred := scan.Le("int0", hi)
		if lo > 1 {
			pred = scan.Between("int0", lo, hi)
		}
		visit := readStr0(q.sum)
		q.job = core.ScanDataset(w.dir).Columns("str0").Where(pred).Lazy(true).
			Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error { return visit(v.(serde.Record)) }))
		return q
	}
	for k := int32(0); k < 3; k++ {
		qs = append(qs, scanQ(1, 2500+100*k))
	}
	for k := 0; k < 3; k++ {
		lo := int32(1 + rng.Intn(9990))
		qs = append(qs, scanQ(lo, lo+9))
	}
	for _, a := range w.aggs {
		qs = append(qs, burstQuery{
			job: core.ScanDataset(w.dir).Where(a.pred).Aggregate(a.agg).AggJob(),
			agg: a.oracle,
		})
	}
	return qs
}

func (w *serveBurst) op(client, _ int, tr *opTrace) (opResult, error) {
	qs := w.burst(client)
	tickets := make([]*serve.Ticket, len(qs))
	for k, q := range qs {
		id := tr.begin("serve", "Enqueue")
		tk, err := w.srv.Enqueue(serveTenants[k%len(serveTenants)], q.job)
		tr.end(id, nil)
		if err != nil {
			return opResult{}, err
		}
		tickets[k] = tk
	}
	var out opResult
	var firstErr error
	for k, tk := range tickets {
		id := tr.begin("serve", "Ticket.Wait")
		res, err := tk.Wait()
		rep := tk.Report()
		tr.end(id, map[string]int64{"batch_queries": int64(rep.BatchQueries), "bytes": rep.ChargedBytes, "cache_bytes": rep.BytesFromCache})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		q := qs[k]
		if q.agg != nil {
			if got := renderAgg(res.Agg.Rows()); !slices.Equal(got, q.agg) && firstErr == nil {
				firstErr = fmt.Errorf("serve_burst query %d: rows %v, oracle %v", k, got, q.agg)
			}
		} else if (res.Total.RecordsProcessed != q.rows || q.sum.Load() != q.lens) && firstErr == nil {
			firstErr = fmt.Errorf("serve_burst query %d: %d rows summing %d, oracle %d summing %d",
				k, res.Total.RecordsProcessed, q.sum.Load(), q.rows, q.lens)
		}
		out.rows += w.n
		out.readBytes += rep.ChargedBytes + rep.BytesFromCache
		out.splits += int64(res.Plan.SplitsTotal)
		out.stats.Add(res.Total)
	}
	return out, firstErr
}

func (w *serveBurst) close() { w.srv.Drain() }

// ---- ingest_compact -----------------------------------------------------

// ingestCompact is the write side of every layer the other workloads read:
// one op appends a slice of 256 crawl arrivals, which fills the memtable
// and flushes it; every fourth flush carries a compaction job. A read-side
// gain bought with heavier footers or encodings shows here as lost
// rows_per_s, and op_p90_ms sits inside the quarter of slices that compact,
// so it is the foreground stall.
type ingestCompact struct {
	fs     *hdfs.FileSystem
	dir    string
	stream *workload.ArrivalStream
	ing    *ingest.Ingester
	urlI   int

	batch    int            // slices one prepare generates
	queue    []arrivalSlice // prepared slices not yet appended
	appended [][]arrivalLog // what the ops appended, for the oracle
	buf      []byte

	stored, user int64 // filled by finish
}

// arrivalSlice is one op's input. The records are dropped once appended;
// only the log — what the oracle needs — outlives the op.
type arrivalSlice struct {
	recs []*serde.GenericRecord
	log  []arrivalLog
}

type arrivalLog struct {
	url      string
	ms, size int64 // fetchTime and serde-encoded bytes
}

const (
	ingestSlice        = 256
	ingestCompactEvery = 4
	ingestContentBytes = 1000
)

func ingestOptions(dir string, schema *serde.Schema) ingest.Options {
	return ingest.Options{
		Dataset:         dir,
		Schema:          schema,
		Key:             "url",
		TimeColumn:      "fetchTime",
		BucketMillis:    60_000,
		MemtableRecords: ingestSlice,
		CompactEvery:    ingestCompactEvery,
		Load:            ingestLoad(),
	}
}

// ingestLoad is the layout ingested partitions are written with.
func ingestLoad() core.LoadOptions {
	return core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 64},
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 64}},
		SplitRecords: 2048,
	}
}

// newIngest starts an empty ingester over a fresh store, and the arrival
// stream that feeds it.
func newIngest(seed int64) (*ingestCompact, error) {
	w := &ingestCompact{fs: newFS(seed), dir: "/ingest"}
	w.stream = workload.NewArrivalStream(workload.ArrivalOptions{
		Crawl:           workload.CrawlOptions{Seed: seed, ContentBytes: ingestContentBytes},
		Seed:            seed,
		RecrawlFraction: 0.2,
	})
	schema := w.stream.Crawl().Schema()
	w.urlI = schema.FieldIndex("url")
	var err error
	w.ing, err = ingest.New(w.fs, ingestOptions(w.dir, schema))
	return w, err
}

func setupIngestCompact(cfg config) (instance, error) {
	w, err := newIngest(cfg.seed)
	if err != nil {
		return nil, err
	}
	// Enough slices per refill that refills are rare, few enough that the
	// benchmark's own queue is not what heap_live_mb measures.
	w.batch = 4
	if cfg.scale == "full" {
		w.batch = 16
	}
	w.prepare()
	return w, nil
}

func (w *ingestCompact) prepare() {
	for s := 0; s < w.batch; s++ {
		slice := arrivalSlice{make([]*serde.GenericRecord, ingestSlice), make([]arrivalLog, ingestSlice)}
		for k := range slice.recs {
			a := w.stream.Next()
			w.buf, _ = serde.AppendRecord(w.buf[:0], a.Rec) // generated records always encode
			slice.recs[k] = a.Rec
			slice.log[k] = arrivalLog{a.Rec.GetAt(w.urlI).(string), a.Millis, int64(len(w.buf))}
		}
		w.queue = append(w.queue, slice)
	}
}

func (w *ingestCompact) prepared() int { return len(w.queue) }

func (w *ingestCompact) op(_, _ int, tr *opTrace) (opResult, error) {
	if len(w.queue) == 0 {
		return opResult{}, fmt.Errorf("ingest_compact: no prepared slice")
	}
	slice := w.queue[0]
	w.queue[0] = arrivalSlice{} // the queue's array must not keep the records alive
	w.queue = w.queue[1:]
	w.appended = append(w.appended, slice.log)
	before := *w.ing.Stats()
	id := tr.begin("ingest", "Append*")
	var err error
	for _, rec := range slice.recs {
		if err = w.ing.Append(rec); err != nil {
			break
		}
	}
	tr.end(id, map[string]int64{"rows": ingestSlice, "generation": w.ing.Generation()})
	if err != nil {
		return opResult{}, err
	}
	st := diffStats(*w.ing.Stats(), before)
	return opResult{rows: ingestSlice, readBytes: st.IO.TotalChargedBytes(), stats: st}, nil
}

// finish seals the stream — flush, compact, collect garbage — then scans
// the whole dataset and compares it with the oracle: exactly the URLs
// appended, each at the fetchTime of its latest arrival.
func (w *ingestCompact) finish() error {
	if err := w.ing.Flush(); err != nil {
		return err
	}
	if err := w.ing.Compact(); err != nil {
		return err
	}
	if err := w.ing.GC(); err != nil {
		return err
	}
	type version struct{ ms, size int64 }
	latest := map[string]version{}
	for _, log := range w.appended {
		for _, a := range log {
			latest[a.url] = version{a.ms, a.size}
		}
	}
	var mu sync.Mutex
	got := make(map[string]int64, len(latest))
	job := core.ScanDataset(w.dir).Columns("url", "fetchTime").
		Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			rec := v.(*serde.GenericRecord)
			mu.Lock()
			got[rec.GetAt(0).(string)] = rec.GetAt(1).(int64)
			mu.Unlock()
			return nil
		}))
	res, err := mapred.Run(w.fs, job)
	if err != nil {
		return err
	}
	if res.Total.RecordsProcessed != int64(len(latest)) || len(got) != len(latest) {
		return fmt.Errorf("ingest_compact: scan returned %d rows (%d URLs), oracle %d live URLs",
			res.Total.RecordsProcessed, len(got), len(latest))
	}
	w.user = 0
	for url, v := range latest {
		if got[url] != v.ms {
			return fmt.Errorf("ingest_compact: %s at fetchTime %d, oracle %d", url, got[url], v.ms)
		}
		w.user += v.size
	}
	w.stored = w.fs.TreeSize(w.dir)
	return nil
}

func (w *ingestCompact) storage() (int64, int64, int64) {
	return w.stored, w.ing.Stats().IO.BytesWritten, w.user
}

func (w *ingestCompact) close() {}

// diffStats subtracts two snapshots of a cumulative counter struct, field
// by field (every counter is an int64, nested structs included).
func diffStats(after, before sim.TaskStats) sim.TaskStats {
	subtract(reflect.ValueOf(&after).Elem(), reflect.ValueOf(before))
	return after
}

func subtract(a, b reflect.Value) {
	for i := 0; i < a.NumField(); i++ {
		switch f := a.Field(i); f.Kind() {
		case reflect.Struct:
			subtract(f, b.Field(i))
		case reflect.Int64:
			f.SetInt(f.Int() - b.Field(i).Int())
		}
	}
}
