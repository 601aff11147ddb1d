package main

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/workload"
)

// ---- crawl_job ----------------------------------------------------------

// crawlJob is the paper's Section 6.3 job: over the crawl dataset, keep the
// URLs containing "ibm.com/jp" and count their content-types. Only url and
// metadata are projected and records are lazy, so the metadata column is
// touched for the ~6 % of rows that survive — skip lists jump the rest.
type crawlJob struct {
	stored
	gen    *workload.Crawl
	n      int64
	oracle map[string]int64 // content-type -> matching rows
}

const crawlContentBytes = 1500

func crawlLoad(n int64, splits int) core.LoadOptions {
	return core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 256},
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 256}},
		SplitRecords: splitRecords(n, splits),
	}
}

func setupCrawlJob(cfg config) (instance, error) {
	w := &crawlJob{stored: stored{fs: newFS(cfg.seed), dir: "/crawl"}, n: cfg.rows(64_000), oracle: map[string]int64{}}
	w.gen = workload.NewCrawl(workload.CrawlOptions{Seed: cfg.seed, ContentBytes: crawlContentBytes})
	var err error
	w.ld, err = loadCIF(w.fs, w.gen, w.n, map[string]core.LoadOptions{w.dir: crawlLoad(w.n, 16)},
		func(_ int64, rec *serde.GenericRecord) {
			if strings.Contains(rec.GetAt(0).(string), workload.MatchPattern) {
				w.oracle[rec.GetAt(4).(map[string]any)["content-type"].(string)]++
			}
		})
	return w, err
}

// job builds the op's MapReduce job; out receives the reduce output.
func (w *crawlJob) job(out *collectOutput, mc *mapperClock, tr *opTrace) *mapred.Job {
	job := core.ScanDataset(w.dir).Columns("url", "metadata").Lazy(true).
		Job(mc.wrap(tr, crawlMapper))
	job.Reducer = mapred.ReducerFunc(func(key any, values []any, emit mapred.Emit) error {
		var n int64
		for _, v := range values {
			n += v.(int64)
		}
		return emit(key, n)
	})
	job.Conf.NumReducers = 4
	job.Output = out
	return job
}

func crawlMapper(_, v any, emit mapred.Emit) error {
	rec := v.(serde.Record)
	url, err := rec.Get("url")
	if err != nil {
		return err
	}
	if !strings.Contains(url.(string), workload.MatchPattern) {
		return nil
	}
	meta, err := rec.Get("metadata")
	if err != nil {
		return err
	}
	return emit(meta.(map[string]any)["content-type"], int64(1))
}

func (w *crawlJob) op(_, _ int, tr *opTrace) (opResult, error) {
	out := &collectOutput{got: map[string]int64{}}
	mc := mapperClock{lazy: true}
	res, err := runJob(w.fs, w.job(out, &mc, tr), &mc, tr, "Run")
	if err != nil {
		return opResult{}, err
	}
	if !maps.Equal(out.got, w.oracle) {
		return opResult{}, fmt.Errorf("crawl_job: content-type counts %v, oracle %v", out.got, w.oracle)
	}
	var r opResult
	r.add(w.n, res)
	return r, nil
}

// ---- scan_wide ----------------------------------------------------------

// scanWide is the "all columns" end of Figure 7: an eager map-only job that
// touches all 13 columns of every record of the paper's synthetic dataset.
type scanWide struct {
	stored
	gen    *workload.Synthetic
	n      int64
	oracle int64 // checksum over every value of every row
}

// wideSum folds one record into the checksum the oracle and the mapper both
// compute: string lengths, integers, and map sizes and values.
func wideSum(get func(f int) any) int64 {
	var s int64
	for f := 0; f < 6; f++ {
		s += int64(len(get(f).(string)))
	}
	for f := 6; f < 12; f++ {
		s += int64(get(f).(int32))
	}
	for _, v := range get(fMap0).(map[string]any) {
		s += int64(v.(int32)) + 1
	}
	return s
}

func setupScanWide(cfg config) (instance, error) {
	w := &scanWide{stored: stored{fs: newFS(cfg.seed), dir: "/wide"}, n: cfg.rows(40_000)}
	w.gen = workload.NewSynthetic(cfg.seed)
	opts := core.LoadOptions{SplitRecords: splitRecords(w.n, 8)} // default layout: plain
	var err error
	w.ld, err = loadCIF(w.fs, w.gen, w.n, map[string]core.LoadOptions{w.dir: opts},
		func(_ int64, rec *serde.GenericRecord) { w.oracle += wideSum(rec.GetAt) })
	return w, err
}

func (w *scanWide) op(_, _ int, tr *opTrace) (opResult, error) {
	var sum atomic.Int64
	var mc mapperClock
	job := core.ScanDataset(w.dir).Job(mc.wrap(tr, func(_, v any, _ mapred.Emit) error {
		rec, ok := v.(*serde.GenericRecord)
		if !ok {
			return fmt.Errorf("scan_wide: eager scan produced %T", v)
		}
		sum.Add(wideSum(rec.GetAt))
		return nil
	}))
	res, err := runJob(w.fs, job, &mc, tr, "Run")
	if err != nil {
		return opResult{}, err
	}
	if res.Total.RecordsProcessed != w.n || sum.Load() != w.oracle {
		return opResult{}, fmt.Errorf("scan_wide: %d records summing %d, oracle %d summing %d",
			res.Total.RecordsProcessed, sum.Load(), w.n, w.oracle)
	}
	var out opResult
	out.add(w.n, res)
	return out, nil
}

// ---- scan_filter --------------------------------------------------------

// scanFilter is the vectorized-execution sweep as one op: a pass of nine
// lazy scans, three layouts by three predicates, projecting int0 and str0.
// str1 cycles through 64 tags, so no zone map or Bloom filter can prune it,
// and int0 is uniform, so its windows span the whole domain: every arm
// decodes its filter column in full and the pass measures decode +
// evaluate, not pruning.
type scanFilter struct {
	stored // dir is the tree holding the three copies
	gen    planted
	n      int64
	arms   []filterArm
}

type filterArm struct {
	name    string // mapred.run_ms.<name>
	dir     string
	pred    scan.Predicate
	matches int64 // oracle: qualifying rows
	sum     int64 // oracle: sum of int0 + len(str0) over them
}

// filterLayouts are the three stored copies. ZLIB is left to the compress
// probes: a zlib arm would turn the pass into a test of compress/flate.
func filterLayouts(n int64) map[string]core.LoadOptions {
	split := splitRecords(n, 8)
	return map[string]core.LoadOptions{
		"/filter/plain": {Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 256}, SplitRecords: split},
		"/filter/skiplist": {
			Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 256},
			PerColumn:    map[string]colfile.Options{"str1": {Layout: colfile.DCSL, StatsEvery: 2048}},
			SplitRecords: split,
		},
		"/filter/block_lzo": {Default: colfile.Options{Layout: colfile.Block, Codec: "lzo", StatsEvery: 256}, SplitRecords: split},
	}
}

func setupScanFilter(cfg config) (instance, error) {
	w := &scanFilter{stored: stored{fs: newFS(cfg.seed), dir: "/filter"}, n: cfg.rows(40_000)}
	// The needle and the range start are drawn from the seed.
	needle := cfg.seed % tagCycle
	if needle < 0 {
		needle += tagCycle
	}
	lo := (needle + 9) % (tagCycle - 16)
	type predDef struct {
		name string
		pred scan.Predicate
		keep func(i int64, int0 int32) bool
	}
	preds := []predDef{
		{"eq", scan.Eq("str1", tag(needle)), func(i int64, _ int32) bool { return i%tagCycle == needle }},
		{"range", scan.Between("str1", tag(lo), tag(lo+15)), func(i int64, _ int32) bool { return i%tagCycle >= lo && i%tagCycle <= lo+15 }},
		{"le", scan.Le("int0", int32(5000)), func(_ int64, v int32) bool { return v <= 5000 }},
	}
	for _, lay := range []string{"plain", "skiplist", "block_lzo"} {
		for _, p := range preds {
			w.arms = append(w.arms, filterArm{name: lay + "_" + p.name, dir: "/filter/" + lay, pred: p.pred})
		}
	}
	var err error
	w.gen = newPlanted(cfg.seed, w.n, true, true, false)
	w.ld, err = loadCIF(w.fs, w.gen, w.n, filterLayouts(w.n),
		func(i int64, rec *serde.GenericRecord) {
			int0 := rec.GetAt(fInt0).(int32)
			v := int64(int0) + int64(len(rec.GetAt(fStr0).(string)))
			for k := range w.arms {
				if preds[k%len(preds)].keep(i, int0) {
					w.arms[k].matches++
					w.arms[k].sum += v
				}
			}
		})
	return w, err
}

// runArm runs one scan of the pass and checks it against the oracle.
func (w *scanFilter) runArm(a filterArm, tr *opTrace) (*mapred.Result, error) {
	var sum atomic.Int64
	mc := mapperClock{lazy: true}
	visit := readInt0Str0(&sum)
	job := core.ScanDataset(a.dir).Columns("int0", "str0").Where(a.pred).Lazy(true).
		Job(mc.wrap(tr, func(_, v any, _ mapred.Emit) error { return visit(v.(serde.Record)) }))
	res, err := runJob(w.fs, job, &mc, tr, a.name)
	if err != nil {
		return nil, err
	}
	if res.Total.RecordsProcessed != a.matches || sum.Load() != a.sum {
		return nil, fmt.Errorf("scan_filter %s: %d rows summing %d, oracle %d summing %d",
			a.name, res.Total.RecordsProcessed, sum.Load(), a.matches, a.sum)
	}
	return res, nil
}

func (w *scanFilter) op(_, _ int, tr *opTrace) (opResult, error) {
	var out opResult
	for _, a := range w.arms {
		res, err := w.runArm(a, tr)
		if err != nil {
			return opResult{}, err
		}
		out.add(w.n, res)
	}
	return out, nil
}

// ---- agg_pushdown -------------------------------------------------------

// aggPushdown is the aggregation-pushdown sweep as one op: a pass of five
// aggregation jobs answered inside the scan, from the stats shortcut (no
// byte decoded) through batch folds to a full-scan GROUP BY. No record is
// ever built, so the fold sink's cost separates here from the record
// sink's in scan_filter and scan_wide.
type aggPushdown struct {
	stored
	n    int64
	arms []aggArm
}

type aggArm struct {
	name   string // mapred.run_ms.<name>
	agg    *scan.Aggregate
	pred   scan.Predicate
	oracle []string // rendered rows, in group order
}

func setupAggPushdown(cfg config) (instance, error) {
	w := &aggPushdown{stored: stored{fs: newFS(cfg.seed), dir: "/agg"}, n: cfg.rows(80_000)}
	needle := cfg.seed % tagCycle
	if needle < 0 {
		needle += tagCycle
	}
	quarter := w.n / 4
	start := (cfg.seed & 0xffff) % (w.n - quarter) // the clustered range's first row, from the seed

	// Hand-written accumulators, one per arm.
	type acc struct{ count, sum, min, max int64 }
	fold := func(a *acc, v int64) {
		if a.count == 0 || v < a.min {
			a.min = v
		}
		if a.count == 0 || v > a.max {
			a.max = v
		}
		a.count++
		a.sum += v
	}
	var clustered, cyclic, most, full acc
	groups := make([]acc, tagCycle)
	ld, err := loadCIF(w.fs, newPlanted(cfg.seed, w.n, true, true, false), w.n,
		map[string]core.LoadOptions{w.dir: skipListLoad(w.n, 16)},
		func(i int64, rec *serde.GenericRecord) {
			int0 := int64(rec.GetAt(fInt0).(int32))
			if i >= start && i < start+quarter {
				fold(&clustered, int0)
			}
			if i%tagCycle == needle {
				fold(&cyclic, int0)
			} else {
				fold(&most, int0)
			}
			fold(&groups[i%tagCycle], int64(rec.GetAt(fInt1).(int32)))
			fold(&full, int0)
		})
	if err != nil {
		return nil, err
	}
	w.ld = ld

	groupRows := make([]string, tagCycle)
	for t := range groups {
		groupRows[t] = fmt.Sprintf("%s|%d|%d", tag(int64(t)), groups[t].count, groups[t].sum)
	}
	defs := []struct {
		name, agg string
		pred      scan.Predicate
		oracle    []string
	}{
		{"agg_count_clustered", "count", scan.Between("int5", int32(start), int32(start+quarter-1)),
			[]string{fmt.Sprintf("<nil>|%d", clustered.count)}},
		{"agg_count_cyclic", "count", scan.Eq("str1", tag(needle)),
			[]string{fmt.Sprintf("<nil>|%d", cyclic.count)}},
		{"agg_fold_most", "min(int0),max(int0),sum(int0)", scan.Not(scan.Eq("str1", tag(needle))),
			[]string{fmt.Sprintf("<nil>|%d|%d|%d", most.min, most.max, most.sum)}},
		{"agg_groupby", "count,sum(int1) group by str1", nil, groupRows},
		{"agg_stats_full", "count,min(int0),max(int0)", nil,
			[]string{fmt.Sprintf("<nil>|%d|%d|%d", full.count, full.min, full.max)}},
	}
	for _, d := range defs {
		agg, err := scan.ParseAggregate(d.agg)
		if err != nil {
			return nil, err
		}
		w.arms = append(w.arms, aggArm{name: d.name, agg: agg, pred: d.pred, oracle: d.oracle})
	}
	return w, nil
}

func (w *aggPushdown) runArm(a aggArm, tr *opTrace) (*mapred.Result, error) {
	res, err := runJob(w.fs, core.ScanDataset(w.dir).Where(a.pred).Aggregate(a.agg).AggJob(), nil, tr, a.name)
	if err != nil {
		return nil, err
	}
	if got := renderAgg(res.Agg.Rows()); !slices.Equal(got, a.oracle) {
		return nil, fmt.Errorf("agg_pushdown %s: rows %v, oracle %v", a.name, got, a.oracle)
	}
	return res, nil
}

func (w *aggPushdown) op(_, _ int, tr *opTrace) (opResult, error) {
	var out opResult
	for _, a := range w.arms {
		res, err := w.runArm(a, tr)
		if err != nil {
			return opResult{}, err
		}
		out.add(w.n, res)
	}
	return out, nil
}
