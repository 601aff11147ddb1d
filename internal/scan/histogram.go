package scan

import "slices"

// Equi-depth histograms for selectivity estimation. Zone maps answer "can
// this group match at all?"; a histogram answers "how many rows?" — the
// statistic the cost model needs to size tasks, pick eager vs lazy
// materialization, and judge shared-batch admission before paying for
// bytes. Equi-depth (every bucket holds the same number of observations)
// beats equi-width on exactly the data the paper's crawl workload has:
// skewed value distributions where a uniform-spread interpolation between
// Min and Max is off by orders of magnitude.
//
// Buckets are built from a bounded systematic sample of the column's
// non-null values (internal/colfile samples on the write path), so counts
// are sample counts: every probe answers a *fraction* of the total, never
// an absolute row count, and scaling to rows is the caller's job. A run of
// equal values large enough to fill a bucket becomes a *degenerate* bucket
// (lo == hi): the histogram's heavy hitters, which make equality estimates
// exact up to sampling error instead of 1/Distinct guesses.

// histMaxBuckets bounds a decoded histogram; anything larger is corruption,
// not a finer histogram (builders cap far below this).
const histMaxBuckets = 1024

// Histogram is an equi-depth histogram over one column's non-null values.
// A nil *Histogram means "no histogram": estimation falls back to the
// uniform-spread model. Bounds use the serde Go value representations and
// compare via CompareValues, so string histograms work where uniform
// interpolation (numeric only) cannot.
type Histogram struct {
	los    []any // per-bucket lowest value, ascending
	his    []any // per-bucket highest value; lo == hi is a degenerate bucket
	counts []int64
	total  int64
}

// NewHistogram reconstructs a decoded histogram. It returns nil (no
// histogram) unless the geometry is valid: equal-length slices, at least
// one bucket, positive counts, and non-decreasing bounds.
func NewHistogram(los, his []any, counts []int64) *Histogram {
	n := len(counts)
	if n == 0 || n > histMaxBuckets || len(los) != n || len(his) != n {
		return nil
	}
	var total int64
	for i := 0; i < n; i++ {
		if counts[i] <= 0 {
			return nil
		}
		if c, ok := CompareValues(los[i], his[i]); !ok || c > 0 {
			return nil
		}
		if i > 0 {
			if c, ok := CompareValues(his[i-1], los[i]); !ok || c > 0 {
				return nil
			}
		}
		total += counts[i]
	}
	return &Histogram{los: los, his: his, counts: counts, total: total}
}

// BuildHistogram builds an equi-depth histogram with at most maxBuckets
// depth buckets from a sample of comparable values (order irrelevant; the
// builder sorts a copy). Values whose run length reaches the bucket depth
// get degenerate buckets of their own, so the result can carry up to
// 2*maxBuckets buckets on heavily skewed data. Returns nil when the sample
// is empty, maxBuckets < 1, or the values do not mutually compare.
func BuildHistogram(sample []any, maxBuckets int) *Histogram {
	n := len(sample)
	if n == 0 || maxBuckets < 1 {
		return nil
	}
	sorted := append([]any(nil), sample...)
	comparable := true
	slices.SortStableFunc(sorted, func(a, b any) int {
		c, ok := CompareValues(a, b)
		if !ok {
			comparable = false
			return 0
		}
		return c
	})
	if !comparable {
		return nil
	}
	depth := (n + maxBuckets - 1) / maxBuckets
	h := &Histogram{}
	var curLo, curHi any
	var curCount int
	flush := func() {
		if curCount > 0 {
			h.los = append(h.los, curLo)
			h.his = append(h.his, curHi)
			h.counts = append(h.counts, int64(curCount))
			h.total += int64(curCount)
			curCount = 0
		}
	}
	for i := 0; i < n; {
		// The run of values equal to sorted[i].
		j := i + 1
		for j < n {
			if c, _ := CompareValues(sorted[j], sorted[i]); c != 0 {
				break
			}
			j++
		}
		run := j - i
		if run >= depth {
			// Heavy hitter: its own degenerate bucket, never diluted into
			// neighbours — this is what makes equality estimates on skewed
			// data exact instead of 1/Distinct.
			flush()
			h.los = append(h.los, sorted[i])
			h.his = append(h.his, sorted[i])
			h.counts = append(h.counts, int64(run))
			h.total += int64(run)
		} else {
			if curCount == 0 {
				curLo = sorted[i]
			}
			curHi = sorted[i]
			curCount += run
			if curCount >= depth {
				flush()
			}
		}
		i = j
	}
	flush()
	if len(h.counts) == 0 {
		return nil
	}
	return h
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int {
	if h == nil {
		return 0
	}
	return len(h.counts)
}

// Total returns the number of sampled observations the buckets cover.
func (h *Histogram) Total() int64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Bucket returns bucket i's bounds and observation count.
func (h *Histogram) Bucket(i int) (lo, hi any, count int64) {
	return h.los[i], h.his[i], h.counts[i]
}

// MaxBucketFraction returns the largest single bucket's share of the total
// — the provable resolution bound of any range estimate (an estimate can
// be off by at most the mass of the buckets straddling its endpoints).
func (h *Histogram) MaxBucketFraction() float64 {
	if h == nil || h.total == 0 {
		return 1
	}
	var max int64
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(h.total)
}

// FractionBelow estimates the fraction of observations ordered below v
// (inclusive additionally counts observations equal to v). ok is false
// when v does not compare against the bucket bounds.
func (h *Histogram) FractionBelow(v any, inclusive bool) (float64, bool) {
	if h == nil || h.total == 0 {
		return 0, false
	}
	var below float64
	for i := range h.counts {
		cLo, ok := CompareValues(v, h.los[i])
		if !ok {
			return 0, false
		}
		if cLo < 0 || (cLo == 0 && !inclusive && h.los[i] == h.his[i]) {
			// v is before this bucket (or equals a degenerate bucket's value
			// exclusively): nothing here or beyond counts.
			break
		}
		cHi, ok := CompareValues(v, h.his[i])
		if !ok {
			return 0, false
		}
		switch {
		case cHi > 0 || (cHi == 0 && inclusive):
			below += float64(h.counts[i])
		case cLo == 0 && !inclusive:
			// v equals the bucket's low bound, exclusively: none of it.
		default:
			// v falls inside the bucket: interpolate where the bounds are
			// numeric, otherwise assume half the bucket (the error is at
			// most one bucket's mass either way — the equi-depth bound).
			frac := 0.5
			if lo, okLo := asFloat(h.los[i]); okLo {
				if hi, okHi := asFloat(h.his[i]); okHi && hi > lo {
					if x, okX := asFloat(v); okX {
						frac = clampFraction((x - lo) / (hi - lo))
					}
				}
			}
			below += frac * float64(h.counts[i])
		}
	}
	return below / float64(h.total), true
}

// EqFraction returns the fraction of observations equal to v when the
// histogram can answer exactly (up to sampling error): v sits in a
// degenerate bucket (its mass is the answer) or outside every bucket
// (zero). exact is false otherwise — the caller should fall back to a
// distinct-count model, capped by EqCap.
func (h *Histogram) EqFraction(v any) (frac float64, exact bool) {
	if h == nil || h.total == 0 {
		return 0, false
	}
	inAny := false
	var mass int64
	for i := range h.counts {
		cLo, okLo := CompareValues(v, h.los[i])
		cHi, okHi := CompareValues(v, h.his[i])
		if !okLo || !okHi {
			return 0, false
		}
		if cLo < 0 || cHi > 0 {
			continue
		}
		inAny = true
		if cLo == 0 && cHi == 0 {
			// Degenerate bucket holding exactly v.
			mass += h.counts[i]
		} else {
			// v falls inside a spread bucket: the histogram cannot isolate
			// its frequency.
			return 0, false
		}
	}
	if !inAny {
		// v is between buckets (or outside the sampled range but inside
		// Min/Max, which pruning already checked): the sample never saw it,
		// so its frequency is below the histogram's resolution. Report the
		// sub-resolution floor rather than zero — the sample may simply
		// have missed a rare value.
		return 1 / float64(2*h.total), true
	}
	return float64(mass) / float64(h.total), true
}

// EqCap returns an upper bound on the fraction of observations equal to v:
// the mass of the bucket(s) containing it. ok is false when v does not
// compare against the bounds.
func (h *Histogram) EqCap(v any) (cap float64, ok bool) {
	if h == nil || h.total == 0 {
		return 0, false
	}
	var mass int64
	for i := range h.counts {
		cLo, okLo := CompareValues(v, h.los[i])
		cHi, okHi := CompareValues(v, h.his[i])
		if !okLo || !okHi {
			return 0, false
		}
		if cLo >= 0 && cHi <= 0 {
			mass += h.counts[i]
		}
	}
	return float64(mass) / float64(h.total), true
}
