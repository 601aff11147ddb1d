package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Selectivity sweeps predicate selectivity from 0.01% to 100% over the
// synthetic dataset and compares, per column layout, two ways of running
// the same selective query:
//
//	pushdown   the predicate travels into CIF (the builder's Where): zone
//	           maps prune record groups, the filter column decides the
//	           rest, and projected columns materialize only for matches;
//	scan+filter the classic shape: project the filter column too, read
//	           every record eagerly, and test the predicate in the map
//	           function.
//
// This experiment extends the paper (its Figure 10 sweeps selectivity only
// against lazy materialization); it quantifies what CIF was missing
// against the Parquet/ORC generation, whose chunk-skipping zone maps are
// table stakes.
//
// The query filters on int0 (uniform over [1, 10000], so a <= K predicate
// has selectivity K/10000) and projects str0 and map0.

// SelectivityFractions are the swept match fractions.
var SelectivityFractions = []float64{0.0001, 0.001, 0.01, 0.1, 1.0}

// SelectivityLayouts are the swept column layouts. The DCSL variant keys
// the map0 payload column; its scalar columns use skip lists, matching how
// DCSL datasets are loaded in practice.
var SelectivityLayouts = []string{"plain", "skiplist", "block", "dcsl"}

// ScanCost summarizes one measured scan.
type ScanCost struct {
	// Seconds is the modeled single-node scan time.
	Seconds float64
	// LogicalBytes / ChargedBytes are delivered and transfer-unit-charged
	// I/O.
	LogicalBytes int64
	ChargedBytes int64
	// DecodedBytes is the total deserialization and decompression output
	// (the CPU-side bytes the acceptance of a selective scan is judged
	// on).
	DecodedBytes int64
	// ValuesMaterialized counts field values built into objects.
	ValuesMaterialized int64
	// RecordsPruned / RecordsFiltered split the rejected records between
	// zone-map pruning and per-record evaluation (pushdown only).
	RecordsPruned   int64
	RecordsFiltered int64
}

// SelectivityCell is one (layout, selectivity) comparison.
type SelectivityCell struct {
	Layout      string
	Fraction    float64
	Matches     int64
	Pushdown    ScanCost
	ScanFilter  ScanCost
	DecodeRatio float64 // ScanFilter.DecodedBytes / Pushdown.DecodedBytes
}

// SelectivityResult holds the sweep matrix.
type SelectivityResult struct {
	Cells   []SelectivityCell
	Records int64
}

// Get returns the cell for a layout/fraction pair.
func (r *SelectivityResult) Get(layout string, fraction float64) SelectivityCell {
	for _, c := range r.Cells {
		if c.Layout == layout && c.Fraction == fraction {
			return c
		}
	}
	return SelectivityCell{}
}

// decodedBytes totals the CPU-side decode output counters.
func decodedBytes(c sim.CPUStats) int64 {
	return c.RawBytes + c.IntBytes + c.DoubleBytes + c.StringBytes +
		c.MapBytes + c.TextBytes + c.ZlibBytes + c.LzoBytes + c.DictBytes
}

func scanCost(st sim.TaskStats, model sim.CostModel) ScanCost {
	return ScanCost{
		Seconds:            model.ScanSeconds(st),
		LogicalBytes:       st.IO.LogicalBytes,
		ChargedBytes:       st.IO.TotalChargedBytes(),
		DecodedBytes:       decodedBytes(st.CPU),
		ValuesMaterialized: st.CPU.ValuesMaterialized,
		RecordsPruned:      st.RecordsPruned,
		RecordsFiltered:    st.RecordsFiltered,
	}
}

// selectivityLayout resolves a layout name to COF load options.
func selectivityLayout(name string) (core.LoadOptions, error) {
	// Smaller-than-default compressed blocks keep several frames per
	// split at benchmark scale, so frame-granular zone maps have groups
	// to prune.
	block := colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 32 << 10}
	switch name {
	case "plain":
		return core.LoadOptions{Default: colfile.Options{Layout: colfile.Plain}}, nil
	case "skiplist":
		return core.LoadOptions{Default: colfile.Options{Layout: colfile.SkipList}}, nil
	case "block":
		return core.LoadOptions{Default: block}, nil
	case "dcsl":
		return core.LoadOptions{
			Default:   colfile.Options{Layout: colfile.SkipList},
			PerColumn: map[string]colfile.Options{"map0": {Layout: colfile.DCSL}},
		}, nil
	}
	return core.LoadOptions{}, fmt.Errorf("bench: unknown selectivity layout %q", name)
}

// Selectivity runs the sweep.
func Selectivity(cfg Config) (*SelectivityResult, error) {
	n := cfg.records(100_000)
	gen := memo(workload.NewSynthetic(cfg.Seed), n)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	res := &SelectivityResult{Records: n}
	for _, layout := range SelectivityLayouts {
		opts, err := selectivityLayout(layout)
		if err != nil {
			return nil, err
		}
		opts.SplitRecords = n/2 + 1
		dir := "/sel/" + layout
		if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
			return nil, fmt.Errorf("loading %s: %w", layout, err)
		}
		// Scan-then-filter: project the filter column too and test in the
		// visit function, as a map function would. It reads and decodes the
		// same bytes whatever the predicate, so one scan tests every
		// fraction's.
		preds := make([]scan.Predicate, len(SelectivityFractions))
		for i, frac := range SelectivityFractions {
			// int0 is uniform over [1, 10000].
			preds[i] = scan.Le("int0", max(int64(frac*10000), 1))
		}
		filterMatches := make([]int64, len(preds))
		fconf := core.ScanDataset(dir).Columns("str0", "map0", "int0").Conf()
		fullSt, _, err := scanSplits(fs, &core.InputFormat{}, &fconf, func(rec serde.Record) error {
			get := scan.Getter(func(col string) (any, error) { return rec.Get(col) })
			for i, pred := range preds {
				ok, err := pred.Eval(get)
				if err != nil {
					return err
				}
				if ok {
					filterMatches[i]++
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s scan+filter: %w", layout, err)
		}

		for i, frac := range SelectivityFractions {
			// Pushdown: predicate below materialization.
			pconf := core.ScanDataset(dir).Columns("str0", "map0").Where(preds[i]).Conf()
			pushSt, pushMatches, err := scanSplits(fs, &core.InputFormat{}, &pconf, nil)
			if err != nil {
				return nil, fmt.Errorf("%s pushdown: %w", layout, err)
			}
			if pushMatches != filterMatches[i] {
				return nil, fmt.Errorf("%s at %.4f: pushdown returned %d records, scan+filter %d",
					layout, frac, pushMatches, filterMatches[i])
			}

			cell := SelectivityCell{
				Layout:     layout,
				Fraction:   frac,
				Matches:    pushMatches,
				Pushdown:   scanCost(pushSt, model),
				ScanFilter: scanCost(fullSt, model),
			}
			cell.DecodeRatio = ratio(float64(cell.ScanFilter.DecodedBytes), float64(cell.Pushdown.DecodedBytes))
			res.Cells = append(res.Cells, cell)
		}
	}

	cfg.printf("Selectivity sweep: pushdown vs scan-then-filter (%d records, filter int0 <= K, project str0+map0)\n", n)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "layout\tselectivity\tmatches\tpush decode MB\tfull decode MB\tratio\tpush charged MB\tfull charged MB\tpruned\tmodeled push\tmodeled full")
		for _, c := range res.Cells {
			fmt.Fprintf(w, "%s\t%.2f%%\t%d\t%.2f\t%.2f\t%.1fx\t%.2f\t%.2f\t%d\t%.3fs\t%.3fs\n",
				c.Layout, c.Fraction*100, c.Matches,
				float64(c.Pushdown.DecodedBytes)/(1<<20),
				float64(c.ScanFilter.DecodedBytes)/(1<<20),
				c.DecodeRatio,
				float64(c.Pushdown.ChargedBytes)/(1<<20),
				float64(c.ScanFilter.ChargedBytes)/(1<<20),
				c.Pushdown.RecordsPruned,
				c.Pushdown.Seconds, c.ScanFilter.Seconds)
		}
	})
	cfg.printf("\n")
	return res, nil
}
