package core

import (
	"fmt"
	"slices"

	"colmr/internal/scan"
)

// Aggregation pushdown (the scan subsystem's fold side). With scan.Spec.Agg
// set a member surfaces no records: its rows fold into a scan.AggState at the
// cheapest site that can answer them, on the exact pruning trajectory of a
// materializing scan:
//
//  1. Zone stats: a region the group tier's one consultation proves
//     all-matching (PruneGroup answers AllMatch), whose every aggregate is
//     answerable from its ColStats (AggState.StatsAnswerable), folds with
//     zero bytes decoded (AggGroupsShortcut) — in a one-member scan only: a
//     shared cursor must visit the region for the other members anyway.
//  2. Vectors: other regions run the batch loop and fold straight from the
//     selection bitmap and the decoded vectors (FoldBatch).
//  3. Records: under Spec.NoVec each match folds through the cursor cache
//     (FoldRecord) — identical results, boxed-value costs.
//
// Members with the same aggregate and residual (one eval group) match the
// same rows, so they share one fold, and AggStates copies it out to each.
//
// The logical counters are a materializing scan's: the shortcut fires only
// inside regions the group tier judges AllMatch, which a materializing scan
// also reads, and the verdict holds for the whole region it was made for.
// RecordsProcessed stays zero — no record reaches a map function.

// DrainAggregate consumes the split and returns the folded aggregate state
// (mapred.AggRecordReader). The reader must have been opened with
// scan.Spec.Agg set; Next must not be mixed with DrainAggregate.
func (r *Reader) DrainAggregate() (*scan.AggState, error) {
	st := r.members[0].fold
	if st == nil {
		return nil, fmt.Errorf("core: reader has no aggregation to drain")
	}
	// An aggregating member surfaces no row, so this runs to the end.
	if _, err := r.advance(); err != nil {
		return nil, err
	}
	return st, nil
}

// AggStates implements mapred.AggSharedRecordReader: the folded state of
// each aggregating member (nil entries for members that surface records),
// indexed like the members slice. Valid after the reader is exhausted.
// Members sharing a fold get equal states, never one aliased object.
func (s *SharedReader) AggStates() []*scan.AggState {
	out := make([]*scan.AggState, len(s.members))
	for i, m := range s.members {
		switch {
		case m.folder:
			out[i] = m.fold
		case m.fold != nil:
			out[i] = scan.NewAggState(m.spec.Agg)
			// Merging into an empty state of the same spec cannot fail: the
			// copy holds exactly the groups the original admitted.
			_ = out[i].Merge(m.fold)
		}
	}
	return out
}

// foldBatch is the aggregate sink: each fold takes its members' matches once
// — from the batch's vectors, or record at a time through the cursor cache —
// and credits the rows to every member sharing it.
func (r *Reader) foldBatch(b *colBatch) error {
	for _, f := range r.members {
		if !f.folder {
			continue
		}
		var rows int64
		if r.vectorize {
			var err error
			if rows, err = f.fold.FoldBatch(f.sel, b); err != nil {
				return err
			}
			r.task.AggBatches++
		} else if f.sel.Test(0) {
			if err := f.fold.FoldRecord(evalCtx{r}); err != nil {
				return err
			}
			rows = 1
		}
		for _, m := range r.members {
			if m.fold == f.fold {
				m.stats.RowsAggregated += rows
			}
		}
	}
	return nil
}

// aggStatsShortcut tries the zero-decode tier at pos for a one-member
// aggregating scan: inside a region the union verdict proves all-matching
// (pruneTri, up to pruneValidTo), a stretch whose every aggregate input
// column has a stats entry covering exactly it folds from those entries
// alone. ok reports whether the fold happened (end is then one past the
// folded stretch); a false return costs only zone-map lookups, never a
// byte.
func (r *Reader) aggStatsShortcut(pos int64) (end int64, ok bool, err error) {
	m := r.members[0]
	if r.pruneTri != scan.AllMatch || len(r.members) > 1 || m.fold == nil || r.dels != nil {
		// A directory with superseded rows cannot fold from stats: the
		// entries describe deleted rows too.
		return 0, false, nil
	}
	end = r.pruneValidTo
	if r.aggEntry == nil {
		r.aggEntries = make([]*scan.ColStats, len(m.aggCols))
		r.aggEntry = func(col string) *scan.ColStats {
			if i := slices.Index(m.aggCols, col); i >= 0 {
				return r.aggEntries[i]
			}
			return nil
		}
	}
	// Clip the region to the aggregate columns' group geometry; every
	// consulted entry must then cover exactly [pos, end) or the bounds and
	// null counts would describe rows outside the fold.
	for i, col := range m.aggCols {
		cst, cend := r.groupStats(col, pos)
		if cst == nil || cend <= pos {
			return 0, false, nil
		}
		end = min(end, cend)
		r.aggEntries[i] = cst
	}
	rows := end - pos
	for _, cst := range r.aggEntries {
		if cst.Rows != rows {
			return 0, false, nil
		}
	}
	st := m.fold
	if !st.StatsAnswerable(rows, r.aggEntry) {
		return 0, false, nil
	}
	// Past this point a failure is a real error, not a fallback: the
	// answerability check promised the fold.
	if err := st.FoldStats(rows, r.aggEntry); err != nil {
		return 0, false, err
	}
	r.task.AggGroupsShortcut++
	m.stats.RowsAggregated += rows
	return end, true, nil
}
