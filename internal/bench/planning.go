package bench

import (
	"fmt"
	"math"
	"math/rand"
	"text/tabwriter"

	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Planning measures the cost-based planner end to end: the CFS4 histogram
// and bloom-fill statistics feed scan.EstimateFraction, the estimate drives
// the eager-vs-lazy and task-sizing choices, and the sweep prices the
// chosen plan against both forced alternatives on identical data.
//
// The sweep crosses value skew with predicate shape. The filter column is
// str1 rewritten to a 64-value tag domain under three distributions:
//
//	uniform    every tag equally likely — 1/Distinct is already right,
//	           histograms must not make it worse;
//	zipf       a heavy head (tag 0 alone is a large fraction) — the case
//	           equi-depth degenerate buckets exist for, where 1/Distinct
//	           is off by an order of magnitude;
//	clustered  tags sorted by record index — zone maps elide whole
//	           directories and the estimate must price only survivors.
//
// Each cell records estimated vs true selectivity (the accuracy half) and
// the modeled scan seconds for the planner's pick vs forced-eager and
// forced-lazy (the decision half). TestPlanningShape pins chosen <= forced
// on every cell and bounds the estimation error.

// PlanningSkews are the value distributions the sweep crosses.
var PlanningSkews = []string{"uniform", "zipf", "clustered"}

// planningSplits is the number of split-directories per dataset.
const planningSplits = 16

// planningTags is the filter column's domain cardinality.
const planningTags = 64

// planningTagValues generates n tag indexes under the named skew.
func planningTagValues(seed int64, skew string, n int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	switch skew {
	case "uniform":
		for i := range vals {
			vals[i] = int64(rng.Intn(planningTags))
		}
	case "zipf":
		z := rand.NewZipf(rng, 1.3, 1, planningTags-1)
		for i := range vals {
			vals[i] = int64(z.Uint64())
		}
	case "clustered":
		for i := range vals {
			vals[i] = int64(i) * planningTags / n
		}
	}
	return vals
}

// taggedGen wraps the synthetic generator, replacing str1 with the
// precomputed tag sequence.
type taggedGen struct {
	*workload.Synthetic
	idx  int
	tags []int64
}

func (g taggedGen) Record(i int64) *serde.GenericRecord {
	rec := g.Synthetic.Record(i)
	rec.SetAt(g.idx, tagValue(g.tags[i]))
	return rec
}

// PlanningCell is one (skew, predicate) comparison.
type PlanningCell struct {
	Skew string
	Arm  string
	// Matches is the number of qualifying records (identical in all arms).
	Matches int64
	// TrueFraction and EstFraction are actual and pre-run estimated
	// selectivity over the whole dataset; AbsError is their distance.
	TrueFraction float64
	EstFraction  float64
	AbsError     float64
	// Lazy and AutoSize are the planner's choices.
	Lazy     bool
	AutoSize bool
	// Chosen, ForcedEager, and ForcedLazy are the measured costs of the
	// planner's pick and the two pinned alternatives.
	Chosen      ScanCost
	ForcedEager ScanCost
	ForcedLazy  ScanCost
}

// PlanningResult holds the sweep.
type PlanningResult struct {
	Cells   []PlanningCell
	Records int64
}

// Get returns the cell for a skew and arm.
func (r *PlanningResult) Get(skew, arm string) PlanningCell {
	for _, c := range r.Cells {
		if c.Skew == skew && c.Arm == arm {
			return c
		}
	}
	return PlanningCell{}
}

// planningJob builds one arm's job: filter on str1, project int0.
func planningJob(dataset string, pred scan.Predicate) *core.ScanBuilder {
	return core.ScanDataset(dataset).Columns("int0").Where(pred)
}

func planningNoop() mapred.Mapper {
	return mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil })
}

// Planning runs the sweep.
func Planning(cfg Config) (*PlanningResult, error) {
	n := cfg.records(100_000)
	syn := workload.NewSynthetic(cfg.Seed)
	idx := syn.Schema().FieldIndex("str1")
	if idx < 0 {
		return nil, fmt.Errorf("bench: synthetic schema has no str1 column")
	}
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)
	in := &core.InputFormat{}

	arms := []struct {
		name string
		pred scan.Predicate
	}{
		// The zipf head: ~1.6% of a uniform column but the dominant value
		// of a skewed one — the arm 1/Distinct mis-sizes worst.
		{"eq head", scan.Eq("str1", tagValue(0))},
		{"eq tail", scan.Eq("str1", tagValue(planningTags-1))},
		{"range 1/8", scan.Between("str1", tagValue(0), tagValue(planningTags/8-1))},
		{"broad 3/4", scan.Gt("str1", tagValue(planningTags/4-1))},
	}

	res := &PlanningResult{Records: n}
	for _, skew := range PlanningSkews {
		dir := "/planning/" + skew
		gen := taggedGen{syn, idx, planningTagValues(cfg.Seed, skew, n)}
		opts := core.LoadOptions{SplitRecords: (n + planningSplits - 1) / planningSplits}
		if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
			return nil, fmt.Errorf("loading %s: %w", skew, err)
		}
		for _, arm := range arms {
			// The chosen arm leaves materialization and sizing unpinned,
			// explains, and applies the plan — exactly the colscan -explain
			// path.
			job := planningJob(dir, arm.pred).Job(planningNoop())
			plan, err := in.Explain(fs, &job.Conf, model)
			if err != nil {
				return nil, fmt.Errorf("%s %s: explain: %w", skew, arm.name, err)
			}
			plan.Apply(&job.Conf)
			chosen, err := mapred.Run(fs, job)
			if err != nil {
				return nil, fmt.Errorf("%s %s (chosen): %w", skew, arm.name, err)
			}
			eager, err := mapred.Run(fs, planningJob(dir, arm.pred).Lazy(false).DirsPerSplit(1).Job(planningNoop()))
			if err != nil {
				return nil, fmt.Errorf("%s %s (forced eager): %w", skew, arm.name, err)
			}
			lazy, err := mapred.Run(fs, planningJob(dir, arm.pred).Lazy(true).DirsPerSplit(1).Job(planningNoop()))
			if err != nil {
				return nil, fmt.Errorf("%s %s (forced lazy): %w", skew, arm.name, err)
			}
			if eager.Total.RecordsProcessed != chosen.Total.RecordsProcessed ||
				lazy.Total.RecordsProcessed != chosen.Total.RecordsProcessed {
				return nil, fmt.Errorf("%s %s: arms disagree on matches (chosen %d, eager %d, lazy %d)",
					skew, arm.name, chosen.Total.RecordsProcessed,
					eager.Total.RecordsProcessed, lazy.Total.RecordsProcessed)
			}
			truth := float64(chosen.Total.RecordsProcessed) / float64(n)
			est := 0.0
			if plan.RowsTotal > 0 {
				est = plan.RowsEst / float64(plan.RowsTotal)
			}
			res.Cells = append(res.Cells, PlanningCell{
				Skew:         skew,
				Arm:          arm.name,
				Matches:      chosen.Total.RecordsProcessed,
				TrueFraction: truth,
				EstFraction:  est,
				AbsError:     math.Abs(est - truth),
				Lazy:         plan.Lazy,
				AutoSize:     plan.AutoSize,
				Chosen:       scanCost(chosen.Total, model),
				ForcedEager:  scanCost(eager.Total, model),
				ForcedLazy:   scanCost(lazy.Total, model),
			})
		}
	}

	cfg.printf("Cost-based planning sweep: histogram estimates vs truth, and planner-chosen vs forced materialization (%d records, %d split-directories, %d-tag filter column)\n",
		n, planningSplits, planningTags)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "skew\tarm\tmatches\ttrue frac\test frac\t|err|\tplan\tchosen\teager\tlazy")
		for _, c := range res.Cells {
			mode := "eager"
			if c.Lazy {
				mode = "lazy"
			}
			if c.AutoSize {
				mode += "+auto"
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.4f\t%.4f\t%s\t%.4fs\t%.4fs\t%.4fs\n",
				c.Skew, c.Arm, c.Matches,
				c.TrueFraction, c.EstFraction, c.AbsError, mode,
				c.Chosen.Seconds, c.ForcedEager.Seconds, c.ForcedLazy.Seconds)
		}
	})
	cfg.printf("\n")
	return res, nil
}
