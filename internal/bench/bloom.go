package bench

import (
	"fmt"
	"math"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Bloom sweeps string-equality predicates over a many-split dataset whose
// filter column (str0: random 20-40 char strings) is unsorted and
// high-cardinality — the regime where zone maps are useless, because every
// record group's [Min, Max] spans essentially the whole domain. Each arm
// compares the full pruning pipeline with Bloom filters consulted against
// the zone-maps-only baseline (ScanDataset(...).Bloom(false)):
//
//	bloom     file-aggregate filters elide whole split-directories at the
//	          scheduler tier, and per-group filters prune record groups
//	          the zone maps cannot (sim.TaskStats.BloomPruned);
//	baseline  the PR 2 pipeline unchanged: Min/Max, key universes, and
//	          the value tier do all the work.
//
// The two runs must return identical records. Shapes the filter cannot
// decide — ranges, prefixes — must cost byte-for-byte the same in both
// runs, and over a dataset written without filters
// (colfile.Options.NoBloom) the toggle must be completely inert: "bloom
// absent" and "bloom unconsulted" are the same scan — the filter is an
// extra statistic, never a different format.

// bloomSplits is the number of split-directories in the swept dataset.
const bloomSplits = 16

// BloomCell is one predicate shape's comparison.
type BloomCell struct {
	Name string
	// Matches is the number of qualifying records (identical in both runs).
	Matches int64
	// SplitsScheduledBloom / SplitsScheduledBase are the map tasks the
	// scheduler created (out of bloomSplits) with and without filters.
	SplitsScheduledBloom int
	SplitsScheduledBase  int
	// BloomPruned is the bloom run's count of record groups only the
	// filter could prune.
	BloomPruned int64
	// Bloom and Base are the measured scan costs.
	Bloom ScanCost
	Base  ScanCost
	// ChargedRatio is Base.ChargedBytes / Bloom.ChargedBytes.
	ChargedRatio float64
}

// BloomResult holds the sweep.
type BloomResult struct {
	Cells   []BloomCell
	Records int64
}

// Get returns the cell with the given name.
func (r *BloomResult) Get(name string) BloomCell {
	for _, c := range r.Cells {
		if c.Name == name {
			return c
		}
	}
	return BloomCell{}
}

// Bloom runs the sweep.
func Bloom(cfg Config) (*BloomResult, error) {
	n := cfg.records(100_000)
	gen := workload.NewSynthetic(cfg.Seed)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	opts := core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList},
		SplitRecords: (n + bloomSplits - 1) / bloomSplits,
	}
	dir := "/bloom/cif"
	if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
		return nil, fmt.Errorf("loading: %w", err)
	}
	// The same dataset written without filters (Options.NoBloom): scanning
	// it with consultation on must behave exactly like consultation off
	// over the bloomed files — "bloom absent" and "bloom unconsulted" are
	// the same scan.
	noBloomOpts := opts
	noBloomOpts.Default.NoBloom = true
	noBloomDir := "/bloom/cif-nofilters"
	if _, err := writeCIF(fs, noBloomDir, gen, n, noBloomOpts, nil); err != nil {
		return nil, fmt.Errorf("loading filter-less copy: %w", err)
	}

	// The probed values: one string that exists (a mid-dataset record's
	// str0) and one that cannot (generated strings never contain '!').
	present, err := gen.Record(n / 3).Get("str0")
	if err != nil {
		return nil, err
	}
	absent := "!no-such-string!"

	// Both legs of an arm scan the same dataset; the last arm runs the
	// toggle over the filter-less files, where consultation must be inert
	// — byte-identical, not merely equivalent. (Across datasets only the
	// logical scan is identical: the bloomed files' longer stats sections
	// sit inside the data region's trailing transfer unit, so charged
	// bytes differ by file geometry; bloom_test.go asserts the
	// cross-dataset LogicalBytes equality.)
	arms := []struct {
		name string
		pred scan.Predicate
		dir  string
	}{
		{"eq present", scan.Eq("str0", present), dir},
		{"eq absent", scan.Eq("str0", absent), dir},
		{"range", scan.Between("str0", "A", "B"), dir},
		{"eq present, no filters", scan.Eq("str0", present), noBloomDir},
	}

	// Every record the scan returns reaches the map function: the engine's
	// RecordsProcessed counts the matches.
	run := func(pred scan.Predicate, dataset string, bloom bool) (*mapred.Result, error) {
		return mapred.Run(fs, core.ScanDataset(dataset).Columns("str0", "map0").Where(pred).Bloom(bloom).Job(noop))
	}

	res := &BloomResult{Records: n}
	for _, arm := range arms {
		on, err := run(arm.pred, arm.dir, true)
		if err != nil {
			return nil, fmt.Errorf("%s (bloom): %w", arm.name, err)
		}
		base, err := run(arm.pred, arm.dir, false)
		if err != nil {
			return nil, fmt.Errorf("%s (baseline): %w", arm.name, err)
		}
		if on.Total.RecordsProcessed != base.Total.RecordsProcessed {
			return nil, fmt.Errorf("%s: bloom returned %d records, baseline %d",
				arm.name, on.Total.RecordsProcessed, base.Total.RecordsProcessed)
		}
		cell := BloomCell{
			Name:                 arm.name,
			Matches:              on.Total.RecordsProcessed,
			SplitsScheduledBloom: on.Plan.SplitsTotal - on.Plan.SplitsPruned,
			SplitsScheduledBase:  base.Plan.SplitsTotal - base.Plan.SplitsPruned,
			BloomPruned:          on.Total.BloomPruned,
			Bloom:                scanCost(on.Total, model),
			Base:                 scanCost(base.Total, model),
		}
		if cell.Bloom.ChargedBytes == 0 && cell.Base.ChargedBytes > 0 {
			// An absent value's file filters can elide every split: the
			// bloom run charges nothing at all.
			cell.ChargedRatio = math.Inf(1)
		} else {
			cell.ChargedRatio = ratio(float64(cell.Base.ChargedBytes), float64(cell.Bloom.ChargedBytes))
		}
		res.Cells = append(res.Cells, cell)
	}

	cfg.printf("Bloom pruning sweep: per-group + whole-file Bloom filters vs zone-maps-only on unsorted high-cardinality strings (%d records, %d split-directories, filter on str0, project str0+map0)\n", n, bloomSplits)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "predicate\tmatches\tsplits bloom/base\tgroups bloom-pruned\tbloom charged MB\tbase charged MB\tratio\tbloom modeled\tbase modeled")
		for _, c := range res.Cells {
			rat := fmt.Sprintf("%.1fx", c.ChargedRatio)
			if math.IsInf(c.ChargedRatio, 1) {
				rat = "inf"
			}
			fmt.Fprintf(w, "%s\t%d\t%d/%d\t%d\t%.2f\t%.2f\t%s\t%.3fs\t%.3fs\n",
				c.Name, c.Matches,
				c.SplitsScheduledBloom, c.SplitsScheduledBase,
				c.BloomPruned,
				float64(c.Bloom.ChargedBytes)/(1<<20),
				float64(c.Base.ChargedBytes)/(1<<20),
				rat,
				c.Bloom.Seconds, c.Base.Seconds)
		}
	})
	cfg.printf("\n")
	return res, nil
}
