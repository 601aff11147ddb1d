package core

import (
	"colmr/internal/colfile"
	"colmr/internal/scan"
)

// Selection pushdown (the scan subsystem's execution side). A job's
// predicate drives the shared hierarchical planner (scan.Planner) below
// record materialization. The scheduler tier runs in
// InputFormat.PlannedSplits before any reader exists; the reader hosts the
// other three:
//
//  1. File pruning: a split-directory's filter-column files are judged by
//     their whole-file statistics before any header is parsed
//     (Reader.pruneDirFiles); a NoMatch proof crosses the whole directory.
//  2. Group pruning: at each batch past the last verdict's extent the
//     planner tests the predicate against the filter columns' zone maps
//     (colfile.StatsSource); a NoMatch proof jumps curPos past the group,
//     whose records the cursors later cross with skips instead of reads,
//     and an AllMatch proof lets an aggregating scan fold the region from
//     the zone map (aggexec.go).
//  3. Record filtering: only filter columns are evaluated exactly — a batch
//     at a time (vecexec.go), or under Spec.NoVec record by record through
//     evalCtx below, whose tests read values through the cursor cache lazy
//     records use. Non-qualifying records never materialize projected
//     columns.
//
// Filter columns outside the projection are opened as extra cursors; the
// record handed to the map function still carries only the projected
// schema.

// groupStats resolves one filter column's zone maps for the union and
// member planners' group tier.
func (r *Reader) groupStats(col string, rec int64) (*scan.ColStats, int64) {
	ci := r.cursorIndex(col)
	if ci < 0 {
		return nil, 0
	}
	src, ok := r.cursors[ci].r.(colfile.StatsSource)
	if !ok {
		return nil, 0
	}
	return src.GroupStats(rec)
}

// evalCtx adapts the Reader to scan.Evaluator for record-at-a-time
// evaluation and folding: every value, a map tested by exists() included,
// is read through the per-record cursor cache.
type evalCtx struct {
	r *Reader
}

// Value implements scan.Evaluator.
func (e evalCtx) Value(col string) (any, error) {
	c, err := e.r.cursorFor(col)
	if err != nil {
		return nil, err
	}
	return e.r.valueAt(c)
}
