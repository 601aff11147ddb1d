package core

import (
	"fmt"

	"colmr/internal/colfile"
	"colmr/internal/scan"
)

// Selection pushdown (the scan subsystem's execution side). When a job
// carries a predicate (scan.SetPredicate), the CIF Reader drives the
// shared hierarchical planner (scan.Planner) below record materialization.
// Two of the four pruning tiers live in this reader; the scheduler tier
// runs in InputFormat.PlannedSplits before the reader exists:
//
//  1. File pruning: each split-directory's filter-column files are judged
//     by their whole-file aggregate statistics before any header is
//     parsed (Reader.pruneDirFiles); a NoMatch proof crosses the whole
//     directory touching only footers.
//  2. Group pruning: at each new record group, the planner tests the
//     predicate against the zone-map statistics of its filter columns
//     (colfile.StatsSource). A NoMatch proof advances curPos past the
//     whole group without touching any column file — the skipped records
//     are later crossed by the cursors' skip-list machinery, charging
//     skips instead of reads.
//  3. Record filtering: for records in groups the zone maps cannot rule
//     out, only the filter columns are evaluated exactly. Map-key tests
//     on DCSL columns resolve through the window dictionary (one lookup
//     refutes a whole window) and a per-record id walk, materializing
//     nothing; other tests materialize the filter column through the same
//     per-cursor cache lazy records use. Non-qualifying records never
//     materialize the remaining projected columns.
//
// Filter columns outside the projection are opened as extra cursors; the
// record handed to the map function still carries only the projected
// schema.

// qualifies decides whether the record at curPos passes the pushdown
// predicate, advancing curPos past provably irrelevant groups as a side
// effect (the caller's scan loop then re-checks bounds).
func (r *Reader) qualifies() (bool, error) {
	if r.curPos >= r.pruneValidTo {
		// The planner's group-tier verdict is scoped to the narrowest
		// group consulted: on NoMatch the scan loop steps past it; on
		// MayMatch per-record evaluation runs without re-consulting zone
		// maps until curPos crosses the bound. byBloom splits out the
		// proofs only a Bloom filter could make.
		tri, end, byBloom := r.planner.PruneGroup(r.curPos, r.total, r.groupStats)
		if tri == scan.NoMatch {
			if r.stats != nil {
				r.stats.GroupsPruned++
				r.stats.RecordsPruned += end - r.curPos
				if byBloom {
					r.stats.BloomPruned++
				}
			}
			r.curPos = end - 1
			return false, nil
		}
		r.pruneValidTo = end
	}
	match, err := r.planner.Predicate().Eval(r.eval)
	if err != nil {
		return false, err
	}
	if !match && r.stats != nil {
		r.stats.RecordsFiltered++
	}
	return match, nil
}

// groupStats resolves one filter column's zone maps for the planner's
// group tier.
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

// evalCtx adapts the Reader to scan.Evaluator for the value tier: plain
// value access goes through the per-record cursor cache, and map-key tests
// are routed to the column reader's prober when it has one (DCSL).
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
