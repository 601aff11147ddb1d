package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// SharedScan sweeps batch concurrency over the clustered dataset: 1/2/4/8
// concurrent jobs with overlapping vs disjoint predicates, each mix run
// twice — every job solo through mapred.Run (the paper's model: each job
// pays a full pass over the files it touches) and co-scheduled through
// mapred.RunBatch (one cursor set per shared split-directory, predicates
// OR-ed, records demultiplexed per job).
//
// Overlapping predicates select nested prefixes of the clustered int0
// domain, so the jobs' surviving split sets nearly coincide and the batch
// reads the union once; disjoint predicates tile the domain, member sets
// never intersect, and co-scheduling must neither help nor hurt. Both
// modes must return identical per-job match counts (enforced here; the
// byte-level guarantee is the sharedscan property test).

// SharedScanJobs are the swept concurrency levels.
var SharedScanJobs = []int{1, 2, 4, 8}

// sharedScanSplits is the number of split-directories in the swept dataset.
const sharedScanSplits = 16

// SharedScanCell is one (concurrency, overlap mode) comparison.
type SharedScanCell struct {
	Jobs    int
	Overlap bool
	// Matches is the summed per-job match count (identical in both modes).
	Matches int64
	// Solo and Batch are the measured costs: Solo sums the independent
	// runs; Batch prices the shared cursor work once plus every job's
	// map-side work.
	Solo  ScanCost
	Batch ScanCost
	// ChargedRatio is Solo.ChargedBytes / Batch.ChargedBytes.
	ChargedRatio float64
	// SharedTasks is the number of map tasks that served more than one
	// job; SharedReads and BytesSaved are the batch's sharing counters.
	SharedTasks int
	SharedReads int64
	BytesSaved  int64
}

// SharedScanResult holds the sweep.
type SharedScanResult struct {
	Cells   []SharedScanCell
	Records int64
}

// Get returns the cell for a concurrency/overlap pair.
func (r *SharedScanResult) Get(jobs int, overlap bool) SharedScanCell {
	for _, c := range r.Cells {
		if c.Jobs == jobs && c.Overlap == overlap {
			return c
		}
	}
	return SharedScanCell{}
}

// sharedScanPred builds job j's predicate for a k-job mix. int0's clustered
// domain is [1, 10000].
func sharedScanPred(j, k int, overlap bool) scan.Predicate {
	if overlap {
		// Nested prefixes of the first quarter: every job scans nearly the
		// same splits, the widest job's region covers the union.
		return scan.Le("int0", int64(2500+100*j))
	}
	width := int64(10000 / k)
	lo := int64(j) * width
	hi := lo + width
	return scan.And(scan.Gt("int0", lo), scan.Le("int0", hi))
}

// SharedScan runs the sweep.
func SharedScan(cfg Config) (*SharedScanResult, error) {
	n := cfg.records(100_000)
	syn := workload.NewSynthetic(cfg.Seed)
	idx := syn.Schema().FieldIndex("int0")
	if idx < 0 {
		return nil, fmt.Errorf("bench: synthetic schema has no int0 column")
	}
	gen := clusteredGen{syn, n, idx}
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	opts := core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList},
		SplitRecords: (n + sharedScanSplits - 1) / sharedScanSplits,
	}
	dir := "/shared/cif"
	if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
		return nil, fmt.Errorf("loading: %w", err)
	}

	res := &SharedScanResult{Records: n}
	for _, overlap := range []bool{true, false} {
		for _, k := range SharedScanJobs {
			jobs := func() []*mapred.Job {
				out := make([]*mapred.Job, k)
				for j := 0; j < k; j++ {
					out[j] = str0Job(dir, sharedScanPred(j, k, overlap))
				}
				return out
			}

			var soloStats sim.TaskStats
			var soloMatches int64
			for _, job := range jobs() {
				r, err := mapred.Run(fs, job)
				if err != nil {
					return nil, fmt.Errorf("solo %d/%v: %w", k, overlap, err)
				}
				soloStats.Add(r.Total)
				soloMatches += r.Total.RecordsProcessed
			}

			br, err := mapred.RunBatch(fs, jobs()...)
			if err != nil {
				return nil, fmt.Errorf("batch %d/%v: %w", k, overlap, err)
			}
			// The batch profile: shared physical work once, plus every
			// job's own counters.
			work := br.Work()
			if work.RecordsProcessed != soloMatches {
				return nil, fmt.Errorf("at %d jobs (overlap=%v): batch matched %d records, solo %d",
					k, overlap, work.RecordsProcessed, soloMatches)
			}

			cell := SharedScanCell{
				Jobs:        k,
				Overlap:     overlap,
				Matches:     soloMatches,
				Solo:        scanCost(soloStats, model),
				Batch:       scanCost(work, model),
				SharedTasks: br.SharedTasks,
				SharedReads: br.Shared.SharedReads,
				BytesSaved:  br.Shared.BytesSaved,
			}
			cell.ChargedRatio = ratio(float64(cell.Solo.ChargedBytes), float64(cell.Batch.ChargedBytes))
			res.Cells = append(res.Cells, cell)
		}
	}

	cfg.printf("Shared scan sweep: co-scheduled batch vs independent runs (%d records, %d split-directories, clustered int0, project str0)\n", n, sharedScanSplits)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "mix\tjobs\tmatches\tsolo charged MB\tbatch charged MB\tratio\tshared tasks\tshared reads\tsaved MB\tsolo modeled\tbatch modeled")
		for _, c := range res.Cells {
			mix := "overlap"
			if !c.Overlap {
				mix = "disjoint"
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\t%.1fx\t%d\t%d\t%.2f\t%.3fs\t%.3fs\n",
				mix, c.Jobs, c.Matches,
				float64(c.Solo.ChargedBytes)/(1<<20),
				float64(c.Batch.ChargedBytes)/(1<<20),
				c.ChargedRatio,
				c.SharedTasks, c.SharedReads,
				float64(c.BytesSaved)/(1<<20),
				c.Solo.Seconds, c.Batch.Seconds)
		}
	})
	cfg.printf("\n")
	return res, nil
}
