package core

import (
	"fmt"

	"colmr/internal/scan"
)

// Aggregation pushdown (the scan subsystem's fold side). With scan.Spec.Agg
// set the reader stops surfacing records entirely: DrainAggregate runs the
// split to completion and folds qualifying rows into a scan.AggState at the
// cheapest site that can answer them, keeping the exact pruning trajectory
// of a materializing scan:
//
//  1. Zone stats: when a region's zone maps already prove every row matches
//     the predicate (Planner.MatchAllGroup) and every aggregate function is
//     answerable from the region's ColStats (AggState.StatsAnswerable), the
//     whole region folds with zero bytes decoded (AggGroupsShortcut).
//  2. Vectors: regions needing evaluation run the same batch loop as a
//     materializing vectorized scan — same batch boundaries, same pruning
//     and filter counters — but the selected rows fold straight from the
//     selection bitmap and the decoded vectors (FoldBatch); no record
//     object is ever built.
//  3. Records: with vectorization off (or a layout that cannot
//     batch-decode) the scalar loop evaluates per record and folds the
//     match (FoldRecord) — identical results, boxed-value costs.
//
// The logical counters stay bit-identical to a materializing scan: the
// stats shortcut fires only inside regions the group tier would judge
// MayMatch (a NoMatch region cannot be MatchAll), and a later PruneGroup
// consultation at any position inside such a region returns the same
// MayMatch verdict, so GroupsPruned / RecordsPruned / BloomPruned /
// RecordsFiltered are unchanged. RecordsProcessed stays zero — no record
// reaches a map function — which is the point.

// DrainAggregate consumes the split and returns the folded aggregate state
// (mapred.AggRecordReader). The reader must have been opened with
// scan.Spec.Agg set; Next must not be mixed with DrainAggregate.
func (r *Reader) DrainAggregate() (*scan.AggState, error) {
	if r.agg == nil {
		return nil, fmt.Errorf("core: reader has no aggregation to drain")
	}
	st := r.aggState
	for {
		if r.done {
			return st, nil
		}
		if r.curPos+1 >= r.total {
			if err := r.nextDir(); err != nil {
				return nil, err
			}
			continue
		}
		if end, ok, err := r.aggStatsShortcut(st, r.curPos+1); err != nil {
			return nil, err
		} else if ok {
			r.curPos = end - 1
			continue
		}
		if r.vecOK {
			if err := r.aggBatchFold(st); err != nil {
				return nil, err
			}
			continue
		}
		r.curPos++
		if r.dels.has(r.curPos) {
			continue
		}
		if r.planner.Predicate() != nil {
			ok, err := r.qualifies()
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if err := st.FoldRecord(r.eval); err != nil {
			return nil, err
		}
		if r.stats != nil {
			r.stats.RowsAggregated++
		}
	}
}

// aggStatsShortcut tries the zero-decode tier at pos: a region the zone
// maps prove all-matching, whose every aggregate input column has a stats
// entry covering exactly the region, folds from those entries alone. ok
// reports whether the fold happened (end is then one past the folded
// region); a false return costs only zone-map lookups, never a byte.
func (r *Reader) aggStatsShortcut(st *scan.AggState, pos int64) (end int64, ok bool, err error) {
	if r.dels != nil {
		// A directory with superseded rows cannot fold from stats: the
		// entries describe deleted rows too.
		return 0, false, nil
	}
	all, end := r.planner.MatchAllGroup(pos, r.total, r.groupStats)
	if !all || end <= pos {
		return 0, false, nil
	}
	// Clip the region to the aggregate columns' group geometry; every
	// consulted entry must then cover exactly [pos, end) or the bounds and
	// null counts would describe rows outside the fold.
	for i, col := range r.aggCols {
		cst, cend := r.groupStats(col, pos)
		if cst == nil || cend <= pos {
			return 0, false, nil
		}
		if cend < end {
			end = cend
		}
		r.aggEntries[i] = cst
	}
	rows := end - pos
	for _, cst := range r.aggEntries {
		if cst.Rows != rows {
			return 0, false, nil
		}
	}
	if !st.StatsAnswerable(rows, r.aggEntry) {
		return 0, false, nil
	}
	// Past this point a failure is a real error, not a fallback: the
	// answerability check promised the fold.
	if err := st.FoldStats(rows, r.aggEntry); err != nil {
		return 0, false, err
	}
	if r.stats != nil {
		r.stats.AggGroupsShortcut++
		r.stats.RowsAggregated += rows
	}
	return end, true, nil
}

// aggBatchFold advances the vectorized aggregate loop one step from
// curPos+1: the batch a materializing scan would build (nextBatch), whose
// selected rows fold from vectors without surfacing. With no predicate the
// full batch folds (selection all-set, no filter counters).
func (r *Reader) aggBatchFold(st *scan.AggState) error {
	b, sel, err := r.nextBatch()
	if b == nil {
		return err
	}
	rows, err := st.FoldBatch(sel, b)
	r.foldCursorStats()
	scan.PutSelection(sel)
	b.release()
	r.curPos = b.end - 1
	if err != nil {
		return err
	}
	if r.stats != nil {
		r.stats.AggBatches++
		r.stats.RowsAggregated += rows
	}
	return nil
}
