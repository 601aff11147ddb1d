package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/sim"
)

// opResult is what one completed operation covered.
type opResult struct {
	rows      int64         // rows of input the op covered (stated per workload)
	readBytes int64         // bytes the readers pulled for it
	splits    int64         // split-directories its scans considered
	stats     sim.TaskStats // the op's work counters, for the model comparison
}

// instance is one set-up workload: datasets loaded, oracle built, server
// started. op runs the i-th operation of a client and compares its answer
// with the oracle — a wrong answer is returned as an error, exactly like a
// failed call, so both count as failed.
type instance interface {
	op(client, i int, tr *opTrace) (opResult, error)
	// storage reports the bytes the live datasets occupy, the bytes their
	// loaders wrote, and the serde-encoded bytes of the live rows.
	storage() (stored, written, user int64)
	// close stops whatever set-up started and returns once it has ended.
	close()
}

// preparer is implemented by workloads whose ops consume generated input
// (ingest arrivals). The harness calls prepare outside the measured clock
// whenever the prepared ops run out, so generating inputs is neither timed
// nor counted as the program's CPU or allocations.
type preparer interface {
	prepared() int // ops that can still run before the next prepare
	prepare()
}

// finisher is implemented by workloads that verify accumulated state after
// the window (ingest: flush, compact, collect garbage, then compare a full
// scan with the oracle's latest version per URL).
type finisher interface {
	finish() error
}

// workloadDef declares one workload. why is the one-line rationale
// BENCHMARK.json repeats.
type workloadDef struct {
	name string
	why  string
	// clients is the number of closed-loop callers: each waits for its
	// reply before its next op (batch submitters and page loads, not
	// independent arrivals).
	clients int
	// heapAfterOps, when set, samples heap_live_mb after exactly that many
	// measured ops instead of at the end of the window: a workload whose
	// state grows with every op (ingest) would otherwise report a heap
	// that is a function of how fast the run happened to go.
	heapAfterOps int
	setup        func(cfg config) (instance, error)
}

// maxClients bounds load generation: never more client goroutines than
// cores the run may use.
func maxClients() int { return min(runtime.NumCPU(), 4) }

func workloads() []workloadDef {
	return []workloadDef{
		{
			name:    "crawl_job",
			why:     "paper 6.3 job: skip lists + lazy records + DCSL, the only shuffle/sort/reduce; colfile SkipTo, core lazy, mapred; no cache",
			clients: 1,
			setup:   setupCrawlJob,
		},
		{
			name:    "scan_wide",
			why:     "Fig. 7 all-columns eager scan: serde decode and core record construction dominate; scan is bypassed (no predicate)",
			clients: 1,
			setup:   setupScanWide,
		},
		{
			name:    "scan_filter",
			why:     "vectorized predicate scans over 3 layouts x 3 selectivities, pruning defeated by construction: colfile DecodeVector, scan VecEval, LZO",
			clients: 1,
			setup:   setupScanFilter,
		},
		{
			name:    "agg_pushdown",
			why:     "aggregation folded inside the scan (stats shortcut, batch fold, group by): scan FoldBatch/FoldStats, core DrainAggregate; no record built",
			clients: 1,
			setup:   setupAggPushdown,
		},
		{
			name:    "serve_burst",
			why:     "dashboard refresh of 8 queries through the scan server, cache-fit: admission window, batch planning, shared reader, session cache",
			clients: maxClients(),
			setup:   setupServeBurst,
		},
		{
			name:         "ingest_compact",
			why:          "streaming write path: serde encode, colfile writers + stats, flush, compaction as a mapred job; p90 is the compaction stall",
			clients:      1,
			heapAfterOps: 96,
			setup:        setupIngestCompact,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// opTrace scopes a tracer to one op; nil when the run is untraced.
type opTrace struct {
	t      *tracer
	trace  int
	parent int
}

func (o *opTrace) begin(layer, name string) int {
	if o == nil {
		return 0
	}
	return o.t.begin(o.trace, o.parent, layer, name)
}

func (o *opTrace) end(id int, counts map[string]int64) {
	if o != nil {
		o.t.end(id, counts)
	}
}

// under returns the trace scoped beneath span id.
func (o *opTrace) under(id int) *opTrace {
	if o == nil {
		return nil
	}
	return &opTrace{t: o.t, trace: o.trace, parent: id}
}

// mapperClock accumulates the time the benchmark's own per-record callback
// takes inside a traced op, by timing one call in 16 — timing every call
// would cost more than most callbacks do. Untraced ops never touch it.
//
// On a lazy scan the callback's time is not the benchmark's: its Get calls
// are where core decodes the projected columns, so the span it reports
// belongs to core. Only an eager scan's callback (scan_wide's checksum over
// a record already built) is the benchmark's own work.
type mapperClock struct {
	lazy  bool
	calls atomic.Int64
	busy  atomic.Int64 // ns, already scaled to all calls
}

// callbackSpan names the span a per-record callback's time is recorded as.
func callbackSpan(lazy bool) (layer, name string) {
	if lazy {
		return "core", "LazyRecord.Get (in mapper)"
	}
	return "bench", "mapper"
}

const mapperSample = 16

// wrap times fn when the op is traced and returns it untouched otherwise.
func (c *mapperClock) wrap(tr *opTrace, fn mapred.MapperFunc) mapred.MapperFunc {
	if tr == nil {
		return fn
	}
	return func(k, v any, emit mapred.Emit) error {
		if c.calls.Add(1)%mapperSample != 0 {
			return fn(k, v, emit)
		}
		t0 := time.Now()
		err := fn(k, v, emit)
		c.busy.Add(int64(time.Since(t0)) * mapperSample)
		return err
	}
}

// report records the accumulated callback time as a child of span parent.
func (c *mapperClock) report(tr *opTrace, parent, parallel int) {
	if tr == nil {
		return
	}
	layer, name := callbackSpan(c.lazy)
	tr.t.busy(tr.trace, parent, layer, name, time.Duration(c.busy.Load()), parallel,
		map[string]int64{"calls": c.calls.Load()})
}

// runJob is the one way workloads call mapred.Run: traced as a mapred span
// with the benchmark's mapper time as its child.
func runJob(fs *hdfs.FileSystem, job *mapred.Job, mc *mapperClock, tr *opTrace, name string) (*mapred.Result, error) {
	id := tr.begin("mapred", name)
	res, err := mapred.Run(fs, job)
	var counts map[string]int64
	if res != nil {
		counts = map[string]int64{
			"rows":  res.Total.RecordsProcessed + res.Total.RowsAggregated,
			"bytes": res.Total.IO.TotalChargedBytes(),
		}
	}
	tr.end(id, counts)
	if mc != nil {
		mc.report(tr, id, min(runtime.NumCPU(), 8))
	}
	return res, err
}

// collectOutput is the benchmark's OutputFormat: it keeps reduce output in
// memory so the op can compare it with the oracle.
type collectOutput struct {
	mu  sync.Mutex
	got map[string]int64
}

func (c *collectOutput) Open(*hdfs.FileSystem, *mapred.JobConf, int, *sim.TaskStats) (mapred.RecordWriter, error) {
	return c, nil
}

func (c *collectOutput) Write(k, v any) error {
	key, ok := k.(string)
	n, ok2 := v.(int64)
	if !ok || !ok2 {
		return fmt.Errorf("benchmark: reduce output (%T, %T), want (string, int64)", k, v)
	}
	c.mu.Lock()
	c.got[key] += n
	c.mu.Unlock()
	return nil
}

func (c *collectOutput) Close() error { return nil }

// add folds one mapred.Run into the op's result.
func (o *opResult) add(rows int64, res *mapred.Result) {
	o.rows += rows
	o.readBytes += res.Total.IO.TotalChargedBytes() + res.ReduceStats.IO.TotalChargedBytes()
	o.splits += int64(res.Plan.SplitsTotal)
	o.stats.Add(res.Total)
}
