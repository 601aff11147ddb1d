package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Elision sweeps predicate selectivity over a many-split dataset whose
// filter column is clustered (monotone across the load order, like a
// timestamp in an append-only log), and compares the full pruning pipeline
// against the group-tier-only baseline:
//
//	elision   the scheduler tier drops whole split-directories from
//	          column-file footer statistics before map tasks exist
//	          (core.InputFormat.PlannedSplits), and the reader's file
//	          tier catches whatever the scheduler was not asked about;
//	baseline  ScanDataset(...).Elide(false): every split-directory becomes
//	          a task whose reader opens cursors and prunes groups with
//	          zone maps — the PR 1 shape this refactor lifts out of the
//	          reader.
//
// The two runs must return identical records; the sweep records how many
// splits were scheduled, the charged I/O, and the modeled time. Elision's
// charged savings are the column-file headers and readahead the baseline's
// pruned-but-opened readers still touch.

// ElisionFractions are the swept match fractions.
var ElisionFractions = []float64{0.0001, 0.001, 0.01, 0.1, 1.0}

// elisionSplits is the number of split-directories in the swept dataset:
// enough that the scheduler tier has real work at every selectivity.
const elisionSplits = 16

// ElisionCell is one selectivity's comparison.
type ElisionCell struct {
	Fraction float64
	// Matches is the number of qualifying records (identical in both runs).
	Matches int64
	// SplitsTotal split-directories exist; SplitsScheduled became map
	// tasks under elision (baseline schedules all of them).
	SplitsTotal     int
	SplitsScheduled int
	// FootersRead is the number of column-file footers the scheduler
	// consulted (uncharged metadata).
	FootersRead int
	// Elision and Baseline are the measured scan costs.
	Elision  ScanCost
	Baseline ScanCost
	// ChargedRatio is Baseline.ChargedBytes / Elision.ChargedBytes.
	ChargedRatio float64
}

// ElisionResult holds the sweep.
type ElisionResult struct {
	Cells   []ElisionCell
	Records int64
}

// Get returns the cell for a fraction.
func (r *ElisionResult) Get(fraction float64) ElisionCell {
	for _, c := range r.Cells {
		if c.Fraction == fraction {
			return c
		}
	}
	return ElisionCell{}
}

// clusteredGen wraps the synthetic generator, replacing int0 with a value
// monotone in the record index: split-directories then cover disjoint int0
// ranges, the regime where whole-file statistics can elide splits. (The
// unmodified synthetic dataset is the adversarial case: int0 is uniform,
// every split spans the full domain, and elision correctly never fires.)
type clusteredGen struct {
	*workload.Synthetic
	n   int64
	idx int // int0's field index, resolved from the schema
}

func (g clusteredGen) Record(i int64) *serde.GenericRecord {
	rec := g.Synthetic.Record(i)
	rec.SetAt(g.idx, int32(1+i*10000/g.n)) // int0's domain is [1, 10000]
	return rec
}

// str0Job builds one measurement query over the clustered dataset:
// map-only, projecting str0 and touching it per record like a map function
// would.
func str0Job(dataset string, pred scan.Predicate) *mapred.Job {
	return core.ScanDataset(dataset).
		Columns("str0").
		Where(pred).
		Job(mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
			_, err := v.(serde.Record).Get("str0")
			return err
		}))
}

// Elision runs the sweep.
func Elision(cfg Config) (*ElisionResult, error) {
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
		SplitRecords: (n + elisionSplits - 1) / elisionSplits,
	}
	dir := "/elide/cif"
	if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
		return nil, fmt.Errorf("loading: %w", err)
	}

	res := &ElisionResult{Records: n}
	for _, frac := range ElisionFractions {
		cut := int64(frac * 10000)
		if cut < 1 {
			cut = 1
		}
		pred := scan.Le("int0", cut)

		// Every record the scan returns reaches the map function: the
		// engine's RecordsProcessed counts the matches.
		run := func(elide bool) (*mapred.Result, error) {
			return mapred.Run(fs, core.ScanDataset(dir).Columns("str0", "map0").Where(pred).Elide(elide).Job(noop))
		}

		elide, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("elision at %.4f: %w", frac, err)
		}
		base, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("baseline at %.4f: %w", frac, err)
		}
		if elide.Total.RecordsProcessed != base.Total.RecordsProcessed {
			return nil, fmt.Errorf("at %.4f: elision returned %d records, baseline %d",
				frac, elide.Total.RecordsProcessed, base.Total.RecordsProcessed)
		}

		report := elide.Plan
		cell := ElisionCell{
			Fraction:        frac,
			Matches:         elide.Total.RecordsProcessed,
			SplitsTotal:     report.SplitsTotal,
			SplitsScheduled: report.SplitsTotal - report.SplitsPruned,
			FootersRead:     report.FilesChecked,
			Elision:         scanCost(elide.Total, model),
			Baseline:        scanCost(base.Total, model),
		}
		cell.ChargedRatio = ratio(float64(cell.Baseline.ChargedBytes), float64(cell.Elision.ChargedBytes))
		res.Cells = append(res.Cells, cell)
	}

	cfg.printf("Split elision sweep: scheduler-tier pruning vs group-tier-only baseline (%d records, %d split-directories, filter int0 <= K on a clustered column, project str0+map0)\n", n, elisionSplits)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "selectivity\tmatches\tsplits scheduled\tfooters read\telide charged MB\tbase charged MB\tratio\telide modeled\tbase modeled")
		for _, c := range res.Cells {
			fmt.Fprintf(w, "%.2f%%\t%d\t%d/%d\t%d\t%.2f\t%.2f\t%.1fx\t%.3fs\t%.3fs\n",
				c.Fraction*100, c.Matches,
				c.SplitsScheduled, c.SplitsTotal, c.FootersRead,
				float64(c.Elision.ChargedBytes)/(1<<20),
				float64(c.Baseline.ChargedBytes)/(1<<20),
				c.ChargedRatio,
				c.Elision.Seconds, c.Baseline.Seconds)
		}
	})
	cfg.printf("\n")
	return res, nil
}
