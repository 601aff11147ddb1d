package scan

import (
	"fmt"
	"sync"
)

// Hierarchical scan planning. A selective scan is pruned at four tiers,
// each owned by the layer with the cheapest view of the data:
//
//	scheduler  whole split-directories are dropped before map tasks exist,
//	           from whole-file aggregate statistics read out of column-file
//	           footers (core.InputFormat.PlannedSplits);
//	file       an opened reader skips a whole split-directory without
//	           building any group index, from the same aggregates;
//	group      zone-map pruning jumps record groups inside a file;
//	value      exact per-record evaluation over filter columns.
//
// Planner is the shared implementation of the conservative tiers: every
// consumer (CIF eager and lazy readers, the split scheduler, future
// formats) asks the same Planner, so a pruning proof is identical wherever
// it fires. PruneReport is the scheduler tier's per-job summary.

// Planner drives conservative pruning for one predicate. A nil Planner (or
// a Planner over a nil predicate) never prunes, so callers need no guards.
type Planner struct {
	pred    Predicate
	cols    []string
	noBloom bool
}

// NewPlanner returns a planner for p. p may be nil.
func NewPlanner(p Predicate) *Planner {
	pl := &Planner{pred: p}
	if p != nil {
		pl.cols = p.Columns(nil)
	}
	return pl
}

// SetBloom enables or disables Bloom-filter consultation for every tier
// this planner decides (default on). Disabling restores zone-map-only
// pruning exactly — the planner strips filters from the statistics before
// the predicate sees them — which is what makes bloom-on vs bloom-off
// output equivalence testable and regressions bisectable, mirroring
// Spec.NoElide for the scheduler tier.
func (p *Planner) SetBloom(on bool) {
	if p != nil {
		p.noBloom = !on
	}
}

// statsView applies the planner's bloom setting to a statistics source.
func (p *Planner) statsView(stats StatsFunc) StatsFunc {
	if p.noBloom {
		return StripBloom(stats)
	}
	return stats
}

// StripBloom wraps a statistics source, hiding Bloom filters from its
// consumers (shallow copies; the underlying entries are never mutated).
// Planner and the selectivity estimator use it to honor Spec.NoBloom.
func StripBloom(stats StatsFunc) StatsFunc {
	return func(col string) *ColStats { return withoutBloom(stats(col)) }
}

// withoutBloom returns st, or a shallow copy of it without its filter.
func withoutBloom(st *ColStats) *ColStats {
	if st == nil || st.Bloom == nil {
		return st
	}
	c := *st
	c.Bloom = nil
	return &c
}

// Predicate returns the planned predicate (nil when none).
func (p *Planner) Predicate() Predicate {
	if p == nil {
		return nil
	}
	return p.pred
}

// FilterColumns returns the distinct columns the predicate reads, in
// first-appearance order. Callers must not mutate the returned slice.
func (p *Planner) FilterColumns() []string {
	if p == nil {
		return nil
	}
	return p.cols
}

// PruneFile decides the scheduler and file tiers: given whole-file (or
// whole-split) aggregate statistics per column, NoMatch proves the file
// holds no qualifying record. Columns without aggregates resolve to nil,
// which pruning treats as MayMatch.
func (p *Planner) PruneFile(stats StatsFunc) Tri {
	if p == nil || p.pred == nil {
		return MayMatch
	}
	return p.pred.Prune(p.statsView(stats))
}

// PruneFileRows is PruneFile plus the accounting protocol both file-tier
// consumers share: on a NoMatch proof it reports how many records the
// proof covers, taken from the statistics the predicate consulted — or,
// when the proof consulted none (a constant-false predicate), from
// recordCount. Keeping the fallback here keeps the scheduler and reader
// tiers' record accounting identical by construction.
func (p *Planner) PruneFileRows(stats StatsFunc, recordCount func() int64) (pruned bool, rows int64) {
	if p == nil || p.pred == nil {
		return false, 0
	}
	wrapped := func(col string) *ColStats {
		st := stats(col)
		if st != nil {
			rows = st.Rows
		}
		return st
	}
	if p.pred.Prune(p.statsView(wrapped)) != NoMatch {
		return false, 0
	}
	if rows == 0 && recordCount != nil {
		rows = recordCount()
	}
	return true, rows
}

// GroupStatsFunc resolves a column name and a record index to the zone-map
// statistics of the record group containing that record, plus the index one
// past the group's last record. It returns (nil, 0) when no statistics
// cover the record.
type GroupStatsFunc func(column string, rec int64) (*ColStats, int64)

// PruneGroup decides the group tier for the record at rec. Columns may use
// different layouts with different group geometries, so the verdict is
// scoped to the narrowest group consulted: the returned end is the smallest
// extent bound, and [rec, end) lies inside every consulted group. On
// NoMatch the caller may skip to end; on MayMatch it need not re-consult
// zone maps before end.
//
// byBloom attributes the proof: true when the NoMatch verdict needed a
// Bloom filter (the same statistics with filters stripped could not prune),
// which callers fold into sim.TaskStats.BloomPruned so the sweep can split
// bloom wins out of GroupsPruned. The re-check runs only on the NoMatch
// path, over statistics the first pass already loaded.
func (p *Planner) PruneGroup(rec, total int64, group GroupStatsFunc) (tri Tri, end int64, byBloom bool) {
	if p == nil || p.pred == nil {
		return MayMatch, total, false
	}
	v := getGroupView(group, rec, total, p.noBloom)
	defer v.release()
	if p.pred.Prune(v.fn) == NoMatch && v.minEnd > rec {
		if !p.noBloom {
			v.strip = true
			byBloom = p.pred.Prune(v.fn) != NoMatch
		}
		return NoMatch, v.minEnd, byBloom
	}
	return MayMatch, v.minEnd, false
}

// MatchAllGroup decides whether every record in [rec, end) satisfies the
// predicate from zone statistics alone — the aggregate drain's shortcut
// tier (a region proven all-matching folds into aggregates straight from
// the zone map, decoding nothing). Like PruneGroup the verdict is scoped
// to the narrowest group consulted: the returned end is the smallest
// extent bound, and [rec, end) lies inside every consulted group. A nil
// planner or predicate matches everything (end = total).
func (p *Planner) MatchAllGroup(rec, total int64, group GroupStatsFunc) (all bool, end int64) {
	if p == nil || p.pred == nil {
		return true, total
	}
	v := getGroupView(group, rec, total, p.noBloom)
	defer v.release()
	if p.pred.MatchAll(v.fn) && v.minEnd > rec {
		return true, v.minEnd
	}
	return false, v.minEnd
}

// groupView is one group-tier consultation's statistics source: the zone
// maps at rec, narrowing minEnd to the smallest group extent consulted, and
// with strip set hiding Bloom filters as StripBloom does. A plan's planners
// serve parallel tasks, so a view belongs to one call, never to the
// Planner: views are pooled, each with its method value bound once, which
// keeps a consultation from allocating a closure and a captured bound.
type groupView struct {
	group  GroupStatsFunc
	rec    int64
	minEnd int64
	strip  bool
	fn     StatsFunc // stats, bound when the view was made
}

var groupViews = sync.Pool{New: func() any {
	v := new(groupView)
	v.fn = v.stats
	return v
}}

func getGroupView(group GroupStatsFunc, rec, total int64, strip bool) *groupView {
	v := groupViews.Get().(*groupView)
	v.group, v.rec, v.minEnd, v.strip = group, rec, total, strip
	return v
}

// release returns the view to the pool, holding on to no caller's source.
func (v *groupView) release() {
	v.group = nil
	groupViews.Put(v)
}

func (v *groupView) stats(col string) *ColStats {
	st, end := v.group(col, v.rec)
	if st == nil {
		return nil
	}
	if end < v.minEnd {
		v.minEnd = end
	}
	if v.strip {
		return withoutBloom(st)
	}
	return st
}

// PruneReport summarizes the scheduler tier's decisions for one job: how
// many split-directories existed, how many were dropped before any map
// task was created, and how many column-file footers were consulted to
// prove it. mapred.Result carries the job's report.
type PruneReport struct {
	// SplitsTotal is the number of split-directories the input datasets
	// hold; SplitsPruned of them were dropped by footer statistics alone.
	SplitsTotal  int
	SplitsPruned int
	// FilesChecked is the number of column files whose aggregate
	// statistics were read (footer and stats section only — never data).
	FilesChecked int
	// RecordsPruned is the number of records inside the elided
	// split-directories. Folding it into the job's RecordsPruned counter
	// keeps the invariant "records pruned at any tier + records filtered
	// + records returned == dataset size" independent of which tier a
	// proof fired at.
	RecordsPruned int64
	// Columns are the predicate's filter columns, whose files were
	// consulted.
	Columns []string
	// Vectorized reports which execution path the job's readers run:
	// batch-at-a-time vector evaluation, or the record-at-a-time scalar
	// loop (predicate-less scans and Spec.NoVec both report false).
	Vectorized bool
	// SharedDeclined counts co-scheduling admissions the batch scheduler
	// declined for this job: potential co-members whose union predicate
	// would have destroyed the batch's pruning (AdmissionCompatible said
	// no), summed over the job's shared runs. Zero for solo runs.
	SharedDeclined int
}

// String renders a one-line summary.
func (r PruneReport) String() string {
	exec := "scalar"
	if r.Vectorized {
		exec = "vectorized"
	}
	s := fmt.Sprintf("scheduled %d of %d split-directories (%d pruned by file statistics, %d footers read), %s execution",
		r.SplitsTotal-r.SplitsPruned, r.SplitsTotal, r.SplitsPruned, r.FilesChecked, exec)
	if r.SharedDeclined > 0 {
		s += fmt.Sprintf(", %d shared-scan admissions declined", r.SharedDeclined)
	}
	return s
}
