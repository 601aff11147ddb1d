package core

import (
	"cmp"
	"slices"

	"colmr/internal/scan"
)

// Position delete vectors (the merge-on-read half of recrawl upserts). A
// recrawl arrival supersedes the earlier version of its key; the old row
// already sits inside an immutable flushed partition, so instead of
// rewriting the partition the ingest path records the row's ordinal in the
// dataset's next commit record (manifest.go). Readers take each partition's
// delete set from the layout snapshot they planned against and skip the
// listed ordinals — scalar loops before predicate evaluation, vectorized
// loops by masking the batch's input selection — so a superseded row is
// never delivered, filtered, or folded. Compaction resolves the deletes
// physically: the merged partition carries none.

// DelRun is the run of ordinals [Start, End).
type DelRun struct{ Start, End int64 }

// DelSet is one partition's deleted ordinals as sorted, disjoint,
// non-adjacent runs. It is immutable once built, so a layout snapshot, every
// split planned from it and every task opening those splits share it.
type DelSet struct {
	runs []DelRun
}

// Union returns the set of d's ordinals and ordinals (any order, duplicates
// allowed; sorted in place) — d itself when ordinals is empty. d is not
// modified, and may be nil, the empty set.
func (d *DelSet) Union(ordinals []int64) *DelSet {
	if len(ordinals) == 0 {
		return d
	}
	slices.Sort(ordinals)
	return &DelSet{runs: mergeRuns(d.Runs(), AppendDelRuns(nil, ordinals))}
}

// AppendDelRuns appends the runs of sorted ordinals (duplicates allowed) to
// dst, leaving dst's own runs as they are.
func AppendDelRuns(dst []DelRun, sorted []int64) []DelRun {
	from := len(dst)
	for _, p := range sorted {
		if n := len(dst); n > from && p <= dst[n-1].End {
			dst[n-1].End = max(dst[n-1].End, p+1)
			continue
		}
		dst = append(dst, DelRun{p, p + 1})
	}
	return dst
}

// Runs returns d's runs in order; the caller must not modify them.
func (d *DelSet) Runs() []DelRun {
	if d == nil {
		return nil
	}
	return d.runs
}

// search returns the index of the first run ending past p.
func (d *DelSet) search(p int64) int {
	lo, hi := 0, len(d.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.runs[mid].End <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// has reports whether ordinal p is deleted.
func (d *DelSet) has(p int64) bool {
	if d == nil {
		return false
	}
	i := d.search(p)
	return i < len(d.runs) && d.runs[i].Start <= p
}

// mask clears the deleted ordinals of [start, end) from sel (whose bit i is
// ordinal start+i) and returns how many set bits it cleared. It touches only
// the runs that overlap the range.
func (d *DelSet) mask(sel *scan.Selection, start, end int64) int64 {
	if d == nil {
		return 0
	}
	var n int64
	for i := d.search(start); i < len(d.runs) && d.runs[i].Start < end; i++ {
		for p := max(d.runs[i].Start, start); p < min(d.runs[i].End, end); p++ {
			if j := int(p - start); sel.Test(j) {
				sel.Clear(j)
				n++
			}
		}
	}
	return n
}

// unionRuns returns the canonical union of base (canonical) and added (any
// order, overlaps allowed). added is sorted in place.
func unionRuns(base, added []DelRun) []DelRun {
	if len(added) == 0 {
		return base
	}
	slices.SortFunc(added, func(a, b DelRun) int { return cmp.Compare(a.Start, b.Start) })
	return mergeRuns(base, added)
}

// mergeRuns returns the canonical union of two run lists, each sorted by
// start.
func mergeRuns(a, b []DelRun) []DelRun {
	out := make([]DelRun, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var r DelRun
		if len(b) == 0 || (len(a) > 0 && a[0].Start <= b[0].Start) {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if n := len(out); n > 0 && r.Start <= out[n-1].End {
			out[n-1].End = max(out[n-1].End, r.End)
			continue
		}
		out = append(out, r)
	}
	return out
}

// delSetAt returns entry i of a split's parallel delete-set list, which
// hand-built splits may leave short or nil (no deletes).
func delSetAt(dels []*DelSet, i int) *DelSet {
	if i < len(dels) {
		return dels[i]
	}
	return nil
}
