package core

import (
	"fmt"

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
//  2. Group pruning: at each new batch the planner tests the predicate
//     against the filter columns' zone maps (colfile.StatsSource); a NoMatch
//     proof jumps curPos past the group, whose records the cursors later
//     cross with skips instead of reads.
//  3. Record filtering: only filter columns are evaluated exactly — a batch
//     at a time (vecexec.go), or under Spec.NoVec record by record through
//     evalCtx below, where DCSL map-key tests resolve through the column's
//     prober and other tests read through the cursor cache lazy records
//     use. Non-qualifying records never materialize projected columns.
//
// Filter columns outside the projection are opened as extra cursors; the
// record handed to the map function still carries only the projected
// schema.

// groupStats resolves one filter column's zone maps for the union and
// member planners' group tier.
func (r *Reader) groupStats(col string, rec int64) (*scan.ColStats, int64) {
	c, err := r.cursorFor(col)
	if err != nil {
		return nil, 0
	}
	src, ok := c.r.(colfile.StatsSource)
	if !ok {
		return nil, 0
	}
	return src.GroupStats(rec)
}

// evalCtx adapts the Reader to scan.Evaluator for record-at-a-time
// evaluation and folding: plain value access goes through the per-record
// cursor cache, and map-key tests are routed to the column reader's prober
// when it has one (DCSL).
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

// HasKey implements scan.Evaluator: key-existence tests on probing layouts
// are decided without materializing the map value. A record whose map is
// already cached answers from the cache instead (answered=false falls back
// to Value, which is then free).
func (e evalCtx) HasKey(col, key string) (bool, bool, error) {
	r := e.r
	c, err := r.cursorFor(col)
	if err != nil {
		return false, false, err
	}
	if c.cachedPos == r.curPos {
		return false, false, nil
	}
	kp, ok := c.r.(colfile.KeyProber)
	if !ok {
		return false, false, nil
	}
	if err := c.r.SkipTo(r.curPos); err != nil {
		return false, false, fmt.Errorf("core: column %q skip to %d: %w", c.name, r.curPos, err)
	}
	return kp.HasKey(key)
}
