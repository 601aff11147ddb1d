package bench

import (
	"fmt"
	"sync"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Aggregation measures the aggregation-pushdown path against the
// materializing alternative: the same aggregate computed (a) inside the
// scan — zone-stats shortcuts, batch folds over selection bitmaps, never a
// record object — and (b) the classic way, records constructed and folded
// in a map function. Both sides share one dataset, one predicate, and one
// pruning trajectory per cell; results must agree exactly or the
// experiment fails, so the numbers always describe two routes to the same
// answer.
//
// The dataset is the synthetic microbenchmark with two planted columns:
// str1 cycles through aggTagCycle values (unprunable by statistics — every
// window contains every needle), and int5 is the record index (perfectly
// clustered — zone maps prune non-matching windows wholesale and matching
// windows are MatchAll, the stats shortcut's home turf). The arm set walks
// the regimes between those poles:
//
//	count clustered   COUNT under a selective clustered range: pruning
//	                  removes most windows, the shortcut answers the rest
//	                  from statistics — the pushdown decodes nothing.
//	                  This is the headline >= 5x acceptance arm.
//	count cyclic      COUNT under the unprunable equality: both sides
//	                  decode the filter column in full; the win narrows
//	                  to fold-vs-materialize on the matches.
//	fold cyclic       MIN/MAX/SUM under the inverted equality (63/64 of
//	                  rows kept): value folding from vectors vs from
//	                  record objects, with the decode fully used.
//	group by          full-scan GROUP BY over the cyclic column: group
//	                  keys must be decoded row by row on both sides.
//	stats full scan   COUNT/MIN/MAX over everything, no predicate: every
//	                  window is stats-answerable.
//
// A second sweep isolates dictionary-id evaluation on a DCSL string
// column: the same COUNT-under-equality job with the id path on vs off
// (vectorization disabled). Charged bytes and pruning counters must be
// identical — the id path reads the same stream — so the delta is purely
// string decode + compare replaced by integer id compares.

// aggTagCycle is the cyclic filter column's cardinality (same role as
// vecTagCycle in the vectorized sweep).
const aggTagCycle = 64

// aggSplits caps the number of split-directories in the swept dataset;
// scaled-down runs use proportionally fewer so each split still holds a
// few thousand records and fixed per-batch overhead doesn't swamp the
// per-row effects being measured.
const aggSplits = 16

// aggGen plants the two benchmark columns in the synthetic schema: str1
// cyclic (unprunable), int5 monotone (perfectly clustered).
type aggGen struct {
	*workload.Synthetic
	strIdx, intIdx int
}

func (g aggGen) Record(i int64) *serde.GenericRecord {
	rec := g.Synthetic.Record(i)
	rec.SetAt(g.strIdx, tagValue(i%aggTagCycle))
	rec.SetAt(g.intIdx, int32(i))
	return rec
}

// AggCell is one (layout, arm) pushdown-vs-materializing comparison.
type AggCell struct {
	Layout string
	Arm    string
	// Rows is the number of records the aggregate folded (equal on both
	// sides by construction).
	Rows int64
	// Groups is the number of output rows.
	Groups int
	// Push and Mat are the pushdown and materializing scan costs.
	Push ScanCost
	Mat  ScanCost
	// PushCPU and MatCPU are modeled CPU seconds (decode + vectorized
	// bookkeeping + fold; I/O excluded), the acceptance ratio's terms.
	PushCPU float64
	MatCPU  float64
	// CPURatio is MatCPU / PushCPU — how many times cheaper the pushdown is.
	CPURatio float64
	// AggBatches / GroupsShortcut are the pushdown's fold-site counters:
	// vector batches folded and record groups answered from statistics.
	AggBatches     int64
	GroupsShortcut int64
}

// AggDictCell is one dictionary-id vs string-decode comparison on the
// DCSL-string dataset (both sides are pushdown COUNT jobs; only the
// evaluation representation differs).
type AggDictCell struct {
	Arm  string
	Rows int64
	// ID and Str are the dictionary-id (vectorized) and string-decode
	// (scalar) costs.
	ID  ScanCost
	Str ScanCost
	// IDCPU / StrCPU / CPURatio mirror AggCell.
	IDCPU    float64
	StrCPU   float64
	CPURatio float64
	// DictIdCompares is the id path's integer comparisons (zero on the
	// string side by definition).
	DictIdCompares int64
}

// AggResult holds both sweeps.
type AggResult struct {
	Cells   []AggCell
	Dict    []AggDictCell
	Records int64
}

// Get returns the cell for a layout and arm.
func (r *AggResult) Get(layout, arm string) AggCell {
	for _, c := range r.Cells {
		if c.Layout == layout && c.Arm == arm {
			return c
		}
	}
	return AggCell{}
}

// GetDict returns the dictionary cell for an arm.
func (r *AggResult) GetDict(arm string) AggDictCell {
	for _, c := range r.Dict {
		if c.Arm == arm {
			return c
		}
	}
	return AggDictCell{}
}

// aggRowsSame compares two aggregate outputs exactly (the benchmark folds
// integers only, so no float tolerance is needed).
func aggRowsSame(a, b []scan.AggRow) bool {
	eq := func(x, y any) bool {
		if x == nil || y == nil {
			return x == nil && y == nil
		}
		c, ok := scan.CompareValues(x, y)
		return ok && c == 0
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i].Group, b[i].Group) || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if !eq(a[i].Values[j], b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

// aggMatJob builds the materializing side: a plain map job projecting
// exactly the columns the pushdown reads, folding each record into st.
// Map tasks run concurrently, so the fold is serialized by mu.
func aggMatJob(dataset string, pred scan.Predicate, agg *scan.Aggregate, st *scan.AggState, mu *sync.Mutex) *mapred.Job {
	cols := agg.Columns(nil)
	if len(cols) == 0 {
		if pred != nil {
			if fc := scan.NewPlanner(pred).FilterColumns(); len(fc) > 0 {
				cols = fc[:1]
			}
		}
		if len(cols) == 0 {
			cols = []string{"int0"}
		}
	}
	return core.ScanDataset(dataset).
		Columns(cols...).
		Where(pred).
		Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			rec, ok := v.(serde.Record)
			if !ok {
				return fmt.Errorf("bench: map input is %T, not a record", v)
			}
			mu.Lock()
			defer mu.Unlock()
			return st.FoldRecord(scan.Getter(func(col string) (any, error) { return rec.Get(col) }))
		}))
}

// Aggregation runs both sweeps.
func Aggregation(cfg Config) (*AggResult, error) {
	n := cfg.records(100_000)
	syn := workload.NewSynthetic(cfg.Seed)
	strIdx, intIdx := syn.Schema().FieldIndex("str1"), syn.Schema().FieldIndex("int5")
	if strIdx < 0 || intIdx < 0 {
		return nil, fmt.Errorf("bench: synthetic schema lacks str1/int5")
	}
	gen := memo(aggGen{syn, strIdx, intIdx}, n)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	splits := n / 5000
	if splits < 1 {
		splits = 1
	}
	if splits > aggSplits {
		splits = aggSplits
	}

	layouts := []struct {
		name string
		opts core.LoadOptions
	}{
		{"skiplist", core.LoadOptions{
			Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 256},
			SplitRecords: (n + splits - 1) / splits,
		}},
		// str1's zone windows are coarse on the DCSL layout: a x64-cyclic
		// column's statistics can never prune (every window holds every
		// needle), and the window extent bounds vector batches — fine
		// windows would just shred the id stream into tiny batches and pay
		// the fixed batch overhead for stats nobody can use.
		{"dcsl-str1", core.LoadOptions{
			Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 256},
			PerColumn:    map[string]colfile.Options{"str1": {Layout: colfile.DCSL, StatsEvery: 2048}},
			SplitRecords: (n + splits - 1) / splits,
		}},
	}
	// The clustered range keeps 1/4 of the records — dozens of whole zone
	// windows for the stats shortcut, with one partial window at the
	// boundary to keep the batch tier honest.
	clustered := scan.Between("int5", int32(0), int32(n/4-1))
	arms := []struct {
		name string
		agg  string
		pred scan.Predicate
	}{
		{"count clustered", "count", clustered},
		{"count cyclic", "count", scan.Eq("str1", tagValue(7))},
		{"fold cyclic", "count,min(int0),max(int0),sum(int0)", scan.Ne("str1", tagValue(7))},
		{"group by", "count group by str1", nil},
		{"stats full scan", "count,count(int0),min(int0),max(int0)", nil},
	}

	res := &AggResult{Records: n}
	cpu := func(st sim.TaskStats) float64 {
		return model.CPUSeconds(st.CPU) + model.VecSeconds(st) + model.AggSeconds(st)
	}
	for _, lay := range layouts {
		dir := "/agg/" + lay.name
		if _, err := writeCIF(fs, dir, gen, n, lay.opts, nil); err != nil {
			return nil, fmt.Errorf("loading %s: %w", lay.name, err)
		}
		for _, arm := range arms {
			agg, err := scan.ParseAggregate(arm.agg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arm.name, err)
			}
			push, err := mapred.Run(fs, core.ScanDataset(dir).Where(arm.pred).Aggregate(agg).AggJob())
			if err != nil {
				return nil, fmt.Errorf("%s %s (pushdown): %w", lay.name, arm.name, err)
			}
			var mu sync.Mutex
			matState := scan.NewAggState(agg)
			mat, err := mapred.Run(fs, aggMatJob(dir, arm.pred, agg, matState, &mu))
			if err != nil {
				return nil, fmt.Errorf("%s %s (materializing): %w", lay.name, arm.name, err)
			}
			if !aggRowsSame(push.Agg.Rows(), matState.Rows()) {
				return nil, fmt.Errorf("%s %s: pushdown result diverges from materializing fold:\npush %v\nmat  %v",
					lay.name, arm.name, push.Agg.Rows(), matState.Rows())
			}
			if push.Total.RowsAggregated != mat.Total.RecordsProcessed {
				return nil, fmt.Errorf("%s %s: pushdown folded %d rows, materializing saw %d records",
					lay.name, arm.name, push.Total.RowsAggregated, mat.Total.RecordsProcessed)
			}
			cell := AggCell{
				Layout:         lay.name,
				Arm:            arm.name,
				Rows:           push.Total.RowsAggregated,
				Groups:         len(push.Agg.Rows()),
				Push:           scanCost(push.Total, model),
				Mat:            scanCost(mat.Total, model),
				PushCPU:        cpu(push.Total),
				MatCPU:         cpu(mat.Total),
				AggBatches:     push.Total.AggBatches,
				GroupsShortcut: push.Total.AggGroupsShortcut,
			}
			cell.CPURatio = ratio(cell.MatCPU, cell.PushCPU)
			res.Cells = append(res.Cells, cell)
		}
	}

	// Dictionary-id sweep: pushdown COUNT on the DCSL dataset, id path
	// (vectorized) vs string decode (scalar). Same stream, same pruning —
	// enforced, not assumed.
	dictDir := "/agg/dcsl-str1"
	count, err := scan.ParseAggregate("count")
	if err != nil {
		return nil, err
	}
	dictArms := []struct {
		name string
		pred scan.Predicate
	}{
		{"eq present", scan.Eq("str1", tagValue(7))},
		{"eq absent", scan.Eq("str1", "tag-absent")},
		{"ne present", scan.Ne("str1", tagValue(7))},
	}
	for _, arm := range dictArms {
		run := func(vect bool) (*mapred.Result, error) {
			return mapred.Run(fs, core.ScanDataset(dictDir).Where(arm.pred).Vectorize(vect).Aggregate(count).AggJob())
		}
		id, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("dict %s (id): %w", arm.name, err)
		}
		str, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("dict %s (string): %w", arm.name, err)
		}
		if !aggRowsSame(id.Agg.Rows(), str.Agg.Rows()) {
			return nil, fmt.Errorf("dict %s: id path answers %v, string path %v",
				arm.name, id.Agg.Rows(), str.Agg.Rows())
		}
		if id.Total.GroupsPruned != str.Total.GroupsPruned ||
			id.Total.RecordsPruned != str.Total.RecordsPruned ||
			id.Total.BloomPruned != str.Total.BloomPruned ||
			id.Total.SplitsPruned != str.Total.SplitsPruned ||
			id.Total.RecordsFiltered != str.Total.RecordsFiltered {
			return nil, fmt.Errorf("dict %s: pruning trajectories diverge", arm.name)
		}
		cell := AggDictCell{
			Arm:            arm.name,
			Rows:           id.Total.RowsAggregated,
			ID:             scanCost(id.Total, model),
			Str:            scanCost(str.Total, model),
			IDCPU:          cpu(id.Total),
			StrCPU:         cpu(str.Total),
			DictIdCompares: id.Total.DictIdCompares,
		}
		cell.CPURatio = ratio(cell.StrCPU, cell.IDCPU)
		res.Dict = append(res.Dict, cell)
	}

	cfg.printf("Aggregation pushdown sweep: scan-side folding vs materialize-then-fold (%d records, %d split-directories; int5 clustered, str1 cyclic x%d)\n",
		n, splits, aggTagCycle)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "layout\tarm\trows\tgroups\tpush CPU\tmat CPU\tratio\tbatches\tshortcuts\tpush MB\tmat MB")
		for _, c := range res.Cells {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.4fs\t%.4fs\t%.1fx\t%d\t%d\t%.2f\t%.2f\n",
				c.Layout, c.Arm, c.Rows, c.Groups,
				c.PushCPU, c.MatCPU, c.CPURatio,
				c.AggBatches, c.GroupsShortcut,
				float64(c.Push.ChargedBytes)/(1<<20), float64(c.Mat.ChargedBytes)/(1<<20))
		}
	})
	cfg.printf("\nDictionary-id evaluation on DCSL str1 (pushdown COUNT, id path vs string decode; identical bytes and pruning by construction)\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "arm\trows\tid CPU\tstring CPU\tratio\tid compares\tcharged MB")
		for _, c := range res.Dict {
			fmt.Fprintf(w, "%s\t%d\t%.4fs\t%.4fs\t%.1fx\t%d\t%.2f\n",
				c.Arm, c.Rows, c.IDCPU, c.StrCPU, c.CPURatio, c.DictIdCompares,
				float64(c.ID.ChargedBytes)/(1<<20))
		}
	})
	cfg.printf("\n")
	return res, nil
}
