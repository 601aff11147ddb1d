// Colscan builds a dataset in each storage format and scans it with a
// column projection, reporting logical/charged bytes, seeks, per-type
// deserialization work, and the modeled single-node scan time — the
// paper's Section 6.2 methodology on demand.
//
// A -where expression adds a selection predicate: CIF pushes it into the
// scan (zone-map pruning plus filter-column evaluation), while SEQ and
// RCFile scan every record and filter afterwards — the comparison the
// selectivity benchmark systematizes.
//
// Repeating -where runs every clause as one shared CIF batch — one job per
// clause, co-scheduled behind one cursor set per split-directory
// (mapred.RunBatch) — and prints per-job and shared-read statistics next to
// the cost of running each job solo.
//
// A -cache budget additionally runs the clauses through one long-lived
// mapred.Session, one RunBatch round per clause: later rounds reuse the
// column regions earlier rounds charged, and the table reports
// CacheHits/BytesFromCache per round next to the shared-read stats.
//
// Usage:
//
//	colscan [-workload synthetic|crawl] [-records N] [-columns url,metadata]
//	        [-where 'prefix(url, "http://ibm.com")' [-where ...]] [-lazy]
//	        [-cache BYTES] [-seed N] [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write a CPU profile of the run and a heap
// profile as it ends, for `go tool pprof` (-sample_index=alloc_objects for
// what the run allocated, object by object).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"text/tabwriter"

	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/prof"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

type generator interface {
	Schema() *serde.Schema
	Record(i int64) *serde.GenericRecord
}

// multiFlag accumulates repeated flag occurrences.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }

func (m *multiFlag) Set(v string) error {
	// An empty clause means "no predicate", as the single -where flag
	// always treated it (scripts pass -where "$WHERE" with WHERE unset).
	if v != "" {
		*m = append(*m, v)
	}
	return nil
}

func main() {
	var wheres multiFlag
	var (
		kind    = flag.String("workload", "synthetic", "dataset (synthetic, crawl)")
		records = flag.Int64("records", 20000, "number of records")
		columns = flag.String("columns", "", "comma-separated projection (empty = all columns)")
		lazy    = flag.Bool("lazy", false, "use lazy record construction for CIF")
		elide   = flag.Bool("elide", true, "let CIF drop split-directories from footer statistics before scheduling")
		vect    = flag.Bool("vectorize", true, "evaluate CIF predicates batch-at-a-time over decoded column vectors")
		cache   = flag.Int64("cache", 0, "session scan-cache budget in bytes; runs the -where clauses as rounds of one cache-backed session")
		agg     = flag.String("agg", "", `aggregation pushed into the CIF scan, e.g. 'count,min(int0) group by str0'; answered from zone stats and vectors, no records materialized`)
		explain = flag.Bool("explain", false, "print the cost-based CIF plan (EXPLAIN), run it, and report estimated vs actual pruning per tier")
		seed    = flag.Int64("seed", 2011, "generator seed")
	)
	flag.Var(&wheres, "where", `selection predicate, e.g. 'int0 <= 100 && prefix(str0, "ab")'; repeat to run a shared batch`)
	profiles := prof.Register()
	flag.Parse()
	check(profiles.Start())

	preds := make([]scan.Predicate, len(wheres))
	for i, w := range wheres {
		var err error
		if preds[i], err = scan.Parse(w); err != nil {
			fmt.Fprintf(os.Stderr, "colscan: %v\n", err)
			os.Exit(2)
		}
	}
	var pred scan.Predicate
	if len(preds) > 0 {
		pred = preds[0]
	}

	var gen generator
	switch *kind {
	case "synthetic":
		gen = workload.NewSynthetic(*seed)
	case "crawl":
		gen = workload.NewCrawl(workload.CrawlOptions{Seed: *seed})
	default:
		fmt.Fprintf(os.Stderr, "colscan: unknown workload %q\n", *kind)
		os.Exit(2)
	}

	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := hdfs.New(cluster, *seed)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())

	// Build SEQ, RCFile, CIF copies.
	{
		f, err := fs.Create("/s/data.seq", hdfs.AnyNode)
		check(err)
		w, err := seq.NewWriter(f, "/s/data.seq", gen.Schema(), seq.Options{}, nil)
		check(err)
		for i := int64(0); i < *records; i++ {
			check(w.Append(gen.Record(i)))
		}
		check(w.Close())
		check(f.Close())
	}
	{
		f, err := fs.Create("/s/data.rc", hdfs.AnyNode)
		check(err)
		w, err := rcfile.NewWriter(f, "/s/data.rc", gen.Schema(), rcfile.Options{}, nil)
		check(err)
		for i := int64(0); i < *records; i++ {
			check(w.Append(gen.Record(i)))
		}
		check(w.Close())
		check(f.Close())
	}
	{
		w, err := core.NewWriter(fs, "/s/cif", gen.Schema(), core.LoadOptions{SplitRecords: *records/4 + 1}, nil)
		check(err)
		for i := int64(0); i < *records; i++ {
			check(w.Append(gen.Record(i)))
		}
		check(w.Close())
	}

	var proj []string
	if *columns != "" {
		proj = strings.Split(*columns, ",")
	}

	type result struct {
		name    string
		st      sim.TaskStats
		matched int64
	}
	var results []result

	// pushdown formats carry the predicate inside the reader; the others
	// scan every record and filter here, after materialization.
	runScan := func(name string, in mapred.InputFormat, conf *mapred.JobConf, pushdown bool) {
		var splits []mapred.Split
		var total sim.TaskStats
		var err error
		if pf, ok := in.(mapred.PlannedInputFormat); ok {
			var report scan.PruneReport
			splits, report, err = pf.PlannedSplits(fs, conf)
			if err == nil && pred != nil {
				fmt.Printf("%s plan: %s\n", name, report)
			}
			// Fold the scheduler tier into the totals, as the engine does:
			// the pruned column then covers every tier.
			total.SplitsPruned = int64(report.SplitsPruned)
			total.RecordsPruned = report.RecordsPruned
		} else {
			splits, err = in.Splits(fs, conf)
		}
		check(err)
		var matched int64
		for _, sp := range splits {
			var st sim.TaskStats
			rr, err := in.Open(fs, conf, sp, 0, &st)
			check(err)
			for {
				_, v, ok, err := rr.Next()
				check(err)
				if !ok {
					break
				}
				rec, isRec := v.(serde.Record)
				if isRec && pred != nil && !pushdown {
					ok, err := pred.Eval(scan.Getter(func(col string) (any, error) { return rec.Get(col) }))
					check(err)
					if !ok {
						st.RecordsProcessed++
						continue
					}
				}
				matched++
				if isRec && len(proj) > 0 {
					// Touch the projected fields, as a map function would.
					for _, c := range proj {
						if _, err := rec.Get(c); err != nil {
							check(err)
						}
					}
				}
				st.RecordsProcessed++
			}
			check(rr.Close())
			total.Add(st)
		}
		results = append(results, result{name, total, matched})
	}

	// Scan-then-filter formats must project the filter columns too; CIF
	// opens them below the projection on its own. Columns dedups against
	// the slice it extends.
	filterProj := proj
	if pred != nil && proj != nil {
		filterProj = pred.Columns(append([]string(nil), proj...))
	}

	runScan("SEQ", &seq.InputFormat{}, &mapred.JobConf{InputPaths: []string{"/s/data.seq"}}, false)
	rconf := &mapred.JobConf{InputPaths: []string{"/s/data.rc"}, Scan: &scan.Spec{Columns: filterProj}}
	runScan("RCFile", &rcfile.InputFormat{}, rconf, false)
	cconf := core.ScanDataset("/s/cif").Columns(proj...).Where(pred).Lazy(*lazy).Elide(*elide).Vectorize(*vect).Conf()
	runScan("CIF", &core.InputFormat{}, &cconf, true)

	// The per-format table compares one predicate; additional clauses run
	// only in the shared batch section below.
	whereLabel := wheres.String()
	if len(preds) > 1 {
		whereLabel = fmt.Sprintf("%s (+%d more in the shared batch below)", wheres[0], len(preds)-1)
	}
	fmt.Printf("scan of %d %s records, projection=%v, where=%q, lazy=%v\n\n", *records, *kind, proj, whereLabel, *lazy)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "format\tmatched\tlogical MB\tcharged MB\tseeks\tmap KB\tvalues\tvec rows\tpruned\tmodeled scan")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%d\t%.1f\t%d\t%d\t%d\t%.3fs\n",
			r.name,
			r.matched,
			float64(r.st.IO.LogicalBytes)/(1<<20),
			float64(r.st.IO.TotalChargedBytes())/(1<<20),
			r.st.IO.Seeks,
			float64(r.st.CPU.MapBytes)/(1<<10),
			r.st.CPU.ValuesMaterialized,
			r.st.RowsVectorized,
			r.st.RecordsPruned,
			model.ScanSeconds(r.st))
	}
	tw.Flush()

	// With -explain, plan the CIF scan cost-based, run the chosen plan, and
	// hold the estimates to account against the run.
	if *explain {
		explainScan(fs, model, "/s/cif", proj, pred, *elide, *vect)
	}

	// With several -where clauses, run them as one shared CIF batch and
	// compare against each clause scanning solo.
	if len(preds) > 1 {
		batchScan(fs, model, "/s/cif", proj, preds, *lazy, *elide, *vect)
	}

	// With a cache budget, run the clauses again as successive rounds of
	// one long-lived session — cross-batch reuse instead of co-submission.
	if *cache > 0 && len(preds) > 0 {
		sessionScan(fs, model, "/s/cif", proj, preds, *lazy, *elide, *vect, *cache)
	}

	// With -agg, push the aggregation into the CIF scan and compare against
	// answering it from materialized records.
	if *agg != "" {
		aggScan(fs, model, "/s/cif", *agg, pred, *elide, *vect)
	}
	check(profiles.Stop())
}

// aggScan runs the aggregation pushed into the scan, prints its rows, and
// compares the modeled cost against a materializing scan that folds the
// same records after the reader surfaces them.
func aggScan(fs *hdfs.FileSystem, model sim.CostModel, dataset, aggSrc string, pred scan.Predicate, elide, vect bool) {
	a, err := scan.ParseAggregate(aggSrc)
	check(err)

	res, err := mapred.Run(fs, core.ScanDataset(dataset).
		Where(pred).Elide(elide).Vectorize(vect).Aggregate(a).AggJob())
	check(err)

	// The materializing baseline: same projection and predicate, records
	// surfaced to a map function that folds the same state by hand. Map
	// tasks run concurrently, so the fold is serialized.
	base := scan.NewAggState(a)
	var mu sync.Mutex
	baseRes, err := mapred.Run(fs, core.ScanDataset(dataset).
		Columns(a.Columns(nil)...).Where(pred).Elide(elide).Vectorize(vect).
		Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			rec := v.(serde.Record)
			mu.Lock()
			defer mu.Unlock()
			return base.FoldRecord(scan.Getter(func(col string) (any, error) { return rec.Get(col) }))
		})))
	check(err)

	fmt.Printf("\naggregation %q pushed into the scan:\n\n", a)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "group"
	for _, f := range a.Funcs {
		header += "\t" + f.String()
	}
	fmt.Fprintln(tw, header)
	for _, row := range res.Agg.Rows() {
		line := fmt.Sprintf("%v", row.Group)
		if a.GroupBy == "" {
			line = "(all)"
		}
		for _, v := range row.Values {
			line += fmt.Sprintf("\t%v", v)
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()

	st := res.Total
	fmt.Printf("\nfolded %d rows in %d batches, %d zone-stat shortcuts, %d dict-id compares, %d values materialized\n",
		st.RowsAggregated, st.AggBatches, st.AggGroupsShortcut, st.DictIdCompares, st.CPU.ValuesMaterialized)
	pushSec, matSec := model.ScanSeconds(st), model.ScanSeconds(baseRes.Total)
	speedup := "equal"
	if pushSec > 0 && matSec > pushSec {
		speedup = fmt.Sprintf("%.1fx faster", matSec/pushSec)
	}
	fmt.Printf("modeled: pushdown %.4fs vs materializing fold %.4fs (%s)\n", pushSec, matSec, speedup)
}

// explainScan is `colscan -explain`: build the cost-based plan without
// pinning materialization or sizing, print it, install its choices, run the
// job, and print the estimated-vs-actual account per pruning tier.
func explainScan(fs *hdfs.FileSystem, model sim.CostModel, dataset string, proj []string, p scan.Predicate, elide, vect bool) {
	job := core.ScanDataset(dataset).
		Columns(proj...).
		Where(p).
		Elide(elide).
		Vectorize(vect).
		Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
	cif, ok := job.Input.(*core.InputFormat)
	if !ok {
		check(fmt.Errorf("explain: job input is %T, not CIF", job.Input))
	}
	plan, err := cif.Explain(fs, &job.Conf, model)
	check(err)
	fmt.Printf("\n%s\n", plan)
	plan.Apply(&job.Conf)
	res, err := mapred.Run(fs, job)
	check(err)
	fmt.Printf("%s\n", plan.Report(res, model))
}

// cifJob builds one map-only CIF job over the dataset through the typed
// builder.
func cifJob(dataset string, proj []string, p scan.Predicate, lazy, elide, vect bool) *mapred.Job {
	return core.ScanDataset(dataset).
		Columns(proj...).
		Where(p).
		Lazy(lazy).
		Elide(elide).
		Vectorize(vect).
		Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
}

// batchScan runs one map-only CIF job per predicate, solo and co-scheduled,
// printing per-job logical accounting and the batch's shared-read savings.
func batchScan(fs *hdfs.FileSystem, model sim.CostModel, dataset string, proj []string, preds []scan.Predicate, lazy, elide, vect bool) {
	job := func(p scan.Predicate) *mapred.Job { return cifJob(dataset, proj, p, lazy, elide, vect) }

	var soloCharged int64
	var soloSeconds float64
	soloMatches := make([]int64, len(preds))
	for i, p := range preds {
		res, err := mapred.Run(fs, job(p))
		check(err)
		soloCharged += res.Total.IO.TotalChargedBytes()
		soloSeconds += model.ScanSeconds(res.Total)
		soloMatches[i] = res.Total.RecordsProcessed
	}

	jobs := make([]*mapred.Job, len(preds))
	for i, p := range preds {
		jobs[i] = job(p)
	}
	br, err := mapred.RunBatch(fs, jobs...)
	check(err)

	fmt.Printf("\nshared CIF batch: %d jobs, %d co-scheduled tasks (%d shared)\n\n", len(preds), br.Tasks, br.SharedTasks)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\twhere\tmatched\tpruned\tfiltered\tsplits scheduled")
	for i, res := range br.Results {
		if res.Total.RecordsProcessed != soloMatches[i] {
			fmt.Fprintf(os.Stderr, "colscan: job %d matched %d batched but %d solo\n", i, res.Total.RecordsProcessed, soloMatches[i])
			os.Exit(1)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d/%d\n",
			i, preds[i], res.Total.RecordsProcessed, res.Total.RecordsPruned, res.Total.RecordsFiltered,
			res.Plan.SplitsTotal-res.Plan.SplitsPruned, res.Plan.SplitsTotal)
	}
	tw.Flush()

	work := br.Work()
	fmt.Printf("\nsolo:  charged %.2f MB, modeled %.3fs (sum of %d independent runs)\n",
		float64(soloCharged)/(1<<20), soloSeconds, len(preds))
	reduction := "nothing charged in either mode"
	if charged := work.IO.TotalChargedBytes(); charged > 0 {
		reduction = fmt.Sprintf("%.1fx charged reduction", float64(soloCharged)/float64(charged))
	}
	fmt.Printf("batch: charged %.2f MB, modeled %.3fs — %d cursor opens avoided, %.2f MB saved (%s)\n",
		float64(work.IO.TotalChargedBytes())/(1<<20), model.ScanSeconds(work),
		br.Shared.SharedReads, float64(br.Shared.BytesSaved)/(1<<20), reduction)
}

// sessionScan runs each predicate as one RunBatch round of a long-lived
// session with the given cache budget — cross-batch reuse, no co-submission
// — printing per-round cache statistics next to the cost of a cold run.
func sessionScan(fs *hdfs.FileSystem, model sim.CostModel, dataset string, proj []string, preds []scan.Predicate, lazy, elide, vect bool, cacheBytes int64) {
	// The vector cache rides the same budget: a round whose batches are all
	// resident decodes (and reads) nothing at all.
	session := mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: cacheBytes, VecCacheBytes: cacheBytes})

	fmt.Printf("\ncached CIF session: %d rounds, %d MB cache budget\n\n", len(preds), cacheBytes>>20)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "round\twhere\tmatched\tcold charged MB\twarm charged MB\tcache hits\tfrom cache MB\tvec hits\tdecode saved\tmodeled")
	var coldTotal, warmTotal int64
	for i, p := range preds {
		cold, err := mapred.Run(fs, cifJob(dataset, proj, p, lazy, elide, vect))
		check(err)
		br, err := session.RunBatch(cifJob(dataset, proj, p, lazy, elide, vect))
		check(err)
		warm := br.Results[0]
		if warm.Total.RecordsProcessed != cold.Total.RecordsProcessed {
			fmt.Fprintf(os.Stderr, "colscan: round %d matched %d cached but %d cold\n",
				i, warm.Total.RecordsProcessed, cold.Total.RecordsProcessed)
			os.Exit(1)
		}
		work := br.Work()
		coldTotal += cold.Total.IO.TotalChargedBytes()
		warmTotal += warm.Total.IO.TotalChargedBytes()
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.2f\t%.2f\t%d\t%.2f\t%d\t%d\t%.3fs\n",
			i, p, warm.Total.RecordsProcessed,
			float64(cold.Total.IO.TotalChargedBytes())/(1<<20),
			float64(warm.Total.IO.TotalChargedBytes())/(1<<20),
			work.CacheHits, float64(work.BytesFromCache)/(1<<20),
			work.VecCacheHits, work.DecodeSavedValues,
			model.ScanSeconds(warm.Total))
	}
	tw.Flush()
	resident, regions := session.CacheUsage()
	reduction := "nothing charged in either mode"
	if warmTotal > 0 {
		reduction = fmt.Sprintf("%.1fx charged reduction", float64(coldTotal)/float64(warmTotal))
	} else if coldTotal > 0 {
		reduction = "every warm byte served from cache"
	}
	vecResident, vectors := session.VecCacheUsage()
	fmt.Printf("\nsession: cold %.2f MB vs warm %.2f MB (%s); cache resident %.2f MB in %d regions; vectors resident %.2f MB in %d vectors\n",
		float64(coldTotal)/(1<<20), float64(warmTotal)/(1<<20), reduction,
		float64(resident)/(1<<20), regions,
		float64(vecResident)/(1<<20), vectors)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "colscan: %v\n", err)
		os.Exit(1)
	}
}
