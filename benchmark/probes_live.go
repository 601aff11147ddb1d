package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/formats/txt"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/serve"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// ---- serve ---------------------------------------------------------------

// probeServe runs serve_burst's refreshes against a fresh server over the
// same dataset, timing every query from Enqueue to Done with one waiter per
// ticket (waiting for the tickets in turn would charge an early finisher the
// wait for its predecessors), then reads the server's own account of
// batching and caching. The HTTP face is measured over a single loopback
// keep-alive connection against a Window-0 server.
func (e *env) probeServe() error {
	w := e.serve
	srv := w.newServer(serveWindow)
	clients := maxClients()
	d := 1500 * time.Millisecond
	if e.cfg.scale == "tiny" {
		d = 100 * time.Millisecond
	}

	var mu sync.Mutex
	var latency, enqueue, wait, members []float64
	var declined int64
	var firstErr error
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				qs := w.burst(c)
				lat := make([]float64, len(qs))
				enq := make([]float64, len(qs))
				tickets := make([]*serve.Ticket, len(qs))
				var waiters sync.WaitGroup
				for k, q := range qs {
					t0 := time.Now()
					tk, err := srv.Enqueue(serveTenants[k%len(serveTenants)], q.job)
					enq[k] = micros(time.Since(t0))
					if err != nil {
						mu.Lock()
						firstErr = err
						mu.Unlock()
						return
					}
					tickets[k] = tk
					waiters.Add(1)
					go func(k int) {
						defer waiters.Done()
						<-tk.Done()
						lat[k] = millis(time.Since(t0))
					}(k)
				}
				waiters.Wait()
				mu.Lock()
				for k, tk := range tickets {
					res, err := tk.Wait()
					if err != nil {
						firstErr = err
						continue
					}
					rep := tk.Report()
					latency = append(latency, lat[k])
					enqueue = append(enqueue, enq[k])
					wait = append(wait, (rep.SealAt-rep.ArriveAt)*1e3)
					members = append(members, float64(rep.BatchQueries))
					declined += int64(res.Plan.SharedDeclined)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		srv.Drain()
		return firstErr
	}
	st := srv.Stats()
	e.m.set("serve.stats_call_us", micros(timed(func() { srv.Stats() })))
	srv.Drain()

	sort.Float64s(latency)
	e.m.set("serve.query_p50_ms", quantile(latency, 0.5))
	e.m.set("serve.query_p90_ms", quantile(latency, 0.9))
	e.m.set("serve.query_p99_ms", quantile(latency, 0.99))
	e.m.set("serve.enqueue_us", median(enqueue))
	e.m.set("serve.window_wait_ms", mean(wait))
	e.m.set("serve.batch_queries_mean", mean(members))
	e.m.set("serve.shared_batch_share", float64(st.SharedBatches)/float64(max(st.Batches, 1)))
	requested := st.ChargedBytes + st.BytesFromCache
	e.m.set("serve.bytes_saved_share", float64(st.BytesSaved)/float64(max(st.BytesSaved+requested, 1)))
	var admitted int64 // co-members a query did share its scan with
	for _, n := range members {
		admitted += int64(n) - 1
	}
	e.m.set("serve.declined_share", float64(declined)/float64(max(declined+admitted, 1)))
	e.m.set("hdfs.cache_hit_share", float64(st.BytesFromCache)/float64(max(requested, 1)))
	fmt.Printf("serve probe: %d queries in %d batches (%d shared), %.1f MB requested\n",
		st.Completed, st.Batches, st.SharedBatches, float64(requested)/(1<<20))

	return e.probeHTTP()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// probeHTTP measures what the HTTP face adds to a query: POST /query over
// one keep-alive loopback connection minus the same query enqueued in
// process, both against a server with no sharing window.
func (e *env) probeHTTP() error {
	w := e.serve
	srv := w.newServer(0)
	defer srv.Drain()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: serve.NewHandler(srv, serve.HandlerOptions{Datasets: map[string]string{"d": w.dir}, Default: "d"})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tp}
	defer func() {
		tp.CloseIdleConnections()
		hs.Close()
		<-done
	}()

	pred := scan.Between("int0", int32(5000), int32(5009))
	body, err := json.Marshal(serve.QueryRequest{Tenant: "ads", Columns: []string{"str0"}, Where: pred.String(), Lazy: true})
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String() + "/query"
	var ferr error
	overHTTP := timed(func() {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			ferr = err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ferr = fmt.Errorf("POST /query: %s", resp.Status)
		}
	})
	inProcess := timed(func() {
		job := core.ScanDataset(w.dir).Columns("str0").Where(pred).Lazy(true).Job(noopMapper)
		tk, err := srv.Enqueue("ads", job)
		if err != nil {
			ferr = err
			return
		}
		if _, err := tk.Wait(); err != nil {
			ferr = err
		}
	})
	e.m.set("serve.http_roundtrip_overhead_us", micros(overHTTP-inProcess))
	return ferr
}

// ---- ingest --------------------------------------------------------------

// probeIngest replays arrivals through a fresh ingester configured like
// ingest_compact's, timing every Append on its own and sorting them by what
// they carried: nothing, a flush, or a flush and a compaction. A count query
// runs beside the writes every fourth slice.
func (e *env) probeIngest() error {
	slices := 16 // four compactions
	if e.cfg.scale == "tiny" {
		slices = ingestCompactEvery
	}
	w, err := newIngest(e.cfg.seed)
	if err != nil {
		return err
	}
	fs, stream, ing := w.fs, w.stream, w.ing
	session := mapred.NewSession(fs, mapred.SessionOptions{})
	count, err := scan.ParseAggregate("count")
	if err != nil {
		return err
	}

	var plain, flush, compact, query, fresh []float64
	var stall time.Duration
	var user int64
	var buf []byte
	var firstMs int64
	for s := 0; s < slices; s++ {
		arrivals := make([]workload.Arrival, ingestSlice)
		for k := range arrivals {
			arrivals[k] = stream.Next()
			buf, _ = serde.AppendRecord(buf[:0], arrivals[k].Rec) // generated records always encode
			user += int64(len(buf))
		}
		if s == 0 {
			firstMs = arrivals[0].Millis
		}
		for _, a := range arrivals {
			st := ing.Stats()
			files, rewritten := st.FlushedFiles, st.CompactionBytes
			t0 := time.Now()
			if err := ing.Append(a.Rec); err != nil {
				return err
			}
			d := time.Since(t0)
			stall = max(stall, d)
			switch {
			case st.CompactionBytes != rewritten:
				compact = append(compact, millis(d))
			case st.FlushedFiles != files:
				flush = append(flush, millis(d))
			default:
				plain = append(plain, float64(d))
			}
		}
		if s%4 == 3 {
			// Reads beside writes: the newer half of what has arrived.
			cutoff := (firstMs + arrivals[len(arrivals)-1].Millis) / 2
			t0 := time.Now()
			res, err := session.Run(core.ScanDataset(w.dir).Where(scan.Gt("fetchTime", cutoff)).Aggregate(count).AggJob())
			if err != nil {
				return err
			}
			query = append(query, millis(time.Since(t0)))
			fresh = append(fresh, float64(res.Total.FreshPartitionsScanned))
		}
	}
	if err := ing.Flush(); err != nil {
		return err
	}
	if err := ing.Compact(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := ing.GC(); err != nil {
		return err
	}
	e.m.set("ingest.gc_ms", millis(time.Since(t0)))
	if len(flush) == 0 || len(compact) == 0 {
		return fmt.Errorf("ingest probe saw %d flushes and %d compactions", len(flush), len(compact))
	}
	e.m.set("ingest.append_ns_per_row", median(plain))
	e.m.set("ingest.flush_ms", median(flush))
	e.m.set("ingest.compact_ms", median(compact))
	e.m.set("ingest.stall_max_ms", millis(stall))
	e.m.set("ingest.compaction_bytes_per_user_byte", float64(ing.Stats().CompactionBytes)/float64(user))
	e.m.set("ingest.flushed_files", float64(ing.Stats().FlushedFiles))
	e.m.set("ingest.generations", float64(ing.Generation()))
	e.m.set("ingest.live_query_ms", median(query))
	e.m.set("ingest.fresh_partitions_scanned_mean", mean(fresh))
	return nil
}

// ---- formats -------------------------------------------------------------

// formatScan is one format's serial full scan of the same rows.
type formatScan struct {
	nsPerRow float64
	modeled  float64 // sim.ScanSeconds of the scan's counters
}

// probeFormats writes scan_wide's rows as TXT, SEQ, RCFile and CIF and
// drains each serially: the abstract's "3x from binary" and CIF against
// SEQ, measured.
func (e *env) probeFormats() error {
	fs := e.wide.fs
	k := min(e.wide.n, 4000)
	recs := sampleRows(e.wide.gen, k)
	schema := e.wide.gen.Schema()
	defer fs.RemoveAll("/probe/formats")

	create := func(name string, write func(w *hdfs.FileWriter) error) (string, error) {
		path := "/probe/formats/" + name
		w, err := fs.Create(path, hdfs.AnyNode)
		if err != nil {
			return "", err
		}
		if err := write(w); err != nil {
			return "", err
		}
		return path, w.Close()
	}
	txtPath, err := create("rows.txt", func(w *hdfs.FileWriter) error {
		tw := txt.NewWriter(w)
		for _, r := range recs {
			if err := tw.Write(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	seqPath, err := create("rows.seq", func(w *hdfs.FileWriter) error {
		sw, err := seq.NewWriter(w, "/probe/formats/rows.seq", schema, seq.Options{}, nil)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := sw.Append(r); err != nil {
				return err
			}
		}
		return sw.Close()
	})
	if err != nil {
		return err
	}
	rcPath, err := create("rows.rc", func(w *hdfs.FileWriter) error {
		rw, err := rcfile.NewWriter(w, "/probe/formats/rows.rc", schema, rcfile.Options{}, nil)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := rw.Append(r); err != nil {
				return err
			}
		}
		return rw.Close()
	})
	if err != nil {
		return err
	}
	cw, err := core.NewWriter(fs, "/probe/formats/cif", schema, core.LoadOptions{SplitRecords: k}, nil)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := cw.Append(r); err != nil {
			return err
		}
	}
	if err := cw.Close(); err != nil {
		return err
	}

	scanWith := func(in mapred.InputFormat, path string) (formatScan, error) {
		conf := mapred.JobConf{InputPaths: []string{path}}
		var st sim.TaskStats
		var ferr error
		d := timed(func() {
			st = sim.TaskStats{}
			splits, err := in.Splits(fs, &conf)
			if err != nil {
				ferr = err
				return
			}
			var rows int64
			for _, sp := range splits {
				rr, err := in.Open(fs, &conf, sp, 0, &st)
				if err != nil {
					ferr = err
					return
				}
				for {
					_, _, ok, err := rr.Next()
					if err != nil || !ok {
						if err != nil {
							ferr = err
						}
						break
					}
					rows++
				}
				rr.Close()
			}
			if rows != k && ferr == nil {
				ferr = fmt.Errorf("%s: scanned %d rows of %d", path, rows, k)
			}
		})
		return formatScan{per(d, k), e.model.ScanSeconds(st)}, ferr
	}
	scans := map[string]formatScan{}
	for _, f := range []struct {
		name string
		in   mapred.InputFormat
		path string
	}{
		{"txt", &txt.InputFormat{Schema: schema}, txtPath},
		{"seq", &seq.InputFormat{}, seqPath},
		{"rcfile", &rcfile.InputFormat{}, rcPath},
		{"cif", &core.InputFormat{}, "/probe/formats/cif"},
	} {
		s, err := scanWith(f.in, f.path)
		if err != nil {
			return err
		}
		scans[f.name] = s
	}
	e.m.set("formats.txt_scan_ns_per_row", scans["txt"].nsPerRow)
	e.m.set("formats.seq_scan_ns_per_row", scans["seq"].nsPerRow)
	e.m.set("formats.rcfile_scan_ns_per_row", scans["rcfile"].nsPerRow)
	e.m.set("formats.seq_over_txt_speedup", scans["txt"].nsPerRow/scans["seq"].nsPerRow)
	e.m.set("formats.cif_over_seq_speedup", scans["seq"].nsPerRow/scans["cif"].nsPerRow)
	e.pairs = append(e.pairs,
		orderPair{"seq vs txt (all columns)", scans["seq"].nsPerRow, scans["txt"].nsPerRow, scans["seq"].modeled, scans["txt"].modeled},
		orderPair{"cif vs seq (all columns)", scans["cif"].nsPerRow, scans["seq"].nsPerRow, scans["cif"].modeled, scans["seq"].modeled})
	return nil
}

// ---- sim: does the model rank arms the way the clock does? ----------------

// orderPair is two ways of computing the same answer, with what each cost
// on the clock and what the cost model says each costs. The model agrees
// when it ranks the pair the way the measurement does.
type orderPair struct {
	name                 string
	measuredA, measuredB float64
	modeledA, modeledB   float64
}

func (p orderPair) agrees() bool {
	return (p.measuredA < p.measuredB) == (p.modeledA < p.modeledB)
}

// modeled prices a job's counters without Hadoop's fixed 52 s job start-up,
// which no op of this benchmark pays.
func (e *env) modeled(st sim.TaskStats) float64 {
	return e.model.TotalTime(st) - e.model.Cluster.JobOverhead
}

// probeOrder runs the arm pairs the cost model ranks — vector vs scalar,
// pushdown vs materialise, dictionary-id vs string compare, lazy vs eager;
// the format pairs come from probeFormats — and reports the share whose
// measured order matches the modeled one. Every pair is printed: a
// disagreement is a finding about the model or the code, not noise to
// smooth over.
func (e *env) probeOrder() error {
	var err error
	run := func(fs *hdfs.FileSystem, build func() *mapred.Job) (float64, float64) {
		var st sim.TaskStats
		d := timed(func() {
			res, rerr := mapred.Run(fs, build())
			if rerr != nil {
				err = rerr
				return
			}
			st = res.Total
		})
		return millis(d), e.modeled(st)
	}
	pair := func(name string, fs *hdfs.FileSystem, a, b func() *mapred.Job) {
		ma, moa := run(fs, a)
		mb, mob := run(fs, b)
		e.pairs = append(e.pairs, orderPair{name, ma, mb, moa, mob})
	}

	plainEq := e.filter.arm("plain_eq")
	vectorized := func(a filterArm, on bool) func() *mapred.Job {
		return func() *mapred.Job {
			return core.ScanDataset(a.dir).Columns("int0").Where(a.pred).Vectorize(on).Job(noopMapper)
		}
	}
	pair("vector vs scalar (plain str1 ==)", e.filter.fs, vectorized(plainEq, true), vectorized(plainEq, false))
	dcslEq := e.filter.arm("skiplist_eq")
	pair("dict-id vs string compare (DCSL str1 ==)", e.filter.fs, vectorized(dcslEq, true), vectorized(dcslEq, false))

	cyclic := e.agg.arm("agg_count_cyclic")
	pair("pushdown vs materialise (count under str1 ==)", e.agg.fs,
		func() *mapred.Job {
			return core.ScanDataset(e.agg.dir).Where(cyclic.pred).Aggregate(cyclic.agg).AggJob()
		},
		func() *mapred.Job {
			return core.ScanDataset(e.agg.dir).Columns("str1").Where(cyclic.pred).Job(noopMapper)
		})

	crawl := func(lazy bool) func() *mapred.Job {
		return func() *mapred.Job {
			job := e.crawl.job(&collectOutput{got: map[string]int64{}}, nil, nil)
			job.Conf.Scan.Lazy = lazy
			return job
		}
	}
	pair("lazy vs eager (crawl job)", e.crawl.fs, crawl(true), crawl(false))
	if err != nil {
		return err
	}

	agree := 0
	fmt.Println("model order check: does sim.CostModel rank each pair the way the clock does?")
	for _, p := range e.pairs {
		verdict := "agrees"
		if p.agrees() {
			agree++
		} else {
			verdict = "DISAGREES"
		}
		fmt.Printf("  %-46s measured %10.4g vs %10.4g   modeled %10.4g vs %10.4g   %s\n",
			p.name, p.measuredA, p.measuredB, p.modeledA, p.modeledB, verdict)
	}
	e.m.set("sim.order_agreement_share", float64(agree)/float64(len(e.pairs)))
	return nil
}
