package scan

import "math"

// Selectivity estimation for plan costing. The scheduler tier reads each
// split-directory's whole-file aggregate statistics (Rows, Nulls, Min/Max,
// Distinct, key universe) before any task exists; estimating match counts
// from them lets the engine size DirsPerSplit — a few surviving, highly
// selective splits merge into fewer map tasks — and lets the batch
// scheduler cost shared-scan groupings. Estimates are best-effort and only
// influence task granularity, never correctness: the exact value tier still
// decides every record.
//
// The estimator uses the classic System R independence assumptions where
// the statistics cannot narrow a predicate, refined by the same
// three-valued Prune verdict pruning uses: a group the statistics prove
// empty (NoMatch) estimates to 0, one they prove full (AllMatch) to 1.

// Default match fractions where the statistics offer nothing sharper
// (System R, Selinger et al. 1979).
const (
	defaultEqFraction     = 0.1
	defaultRangeFraction  = 1.0 / 3
	defaultKeyFraction    = 0.5
	defaultPrefixFraction = 0.1
)

// EstimateFraction estimates the fraction of rows satisfying p, in [0, 1],
// from zone-map statistics alone. A nil predicate matches everything.
func EstimateFraction(p Predicate, stats StatsFunc) float64 {
	if p == nil {
		return 1
	}
	_, f := estimate(p, stats)
	return clampFraction(f)
}

// EstimateRows scales EstimateFraction to a row count.
func EstimateRows(p Predicate, stats StatsFunc, rows int64) float64 {
	return EstimateFraction(p, stats) * float64(rows)
}

func clampFraction(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// estimate returns p's zone-map verdict and its fraction, walking the tree
// once. A leaf asks its own Prune; a composite folds its children's
// verdicts, never their estimates, by its Prune's rule. Because Prune
// consults Bloom filters, a bloom-negative equality estimates to exactly 0;
// callers honoring Spec.NoBloom pass a StripBloom-wrapped source.
func estimate(p Predicate, stats StatsFunc) (t Tri, f float64) {
	switch q := p.(type) {
	case *andPred:
		f = 1
		t = allOf(q.kids, func(k Predicate) Tri {
			kt, kf := estimate(k, stats)
			f *= clampFraction(kf)
			return kt
		})
	case *orPred:
		miss := 1.0
		t = anyOf(q.kids, func(k Predicate) Tri {
			kt, kf := estimate(k, stats)
			miss *= 1 - clampFraction(kf)
			return kt
		})
		f = 1 - miss
	case *notPred:
		kt, kf := estimate(q.kid, stats)
		t, f = kt.negate(), 1-clampFraction(kf)
	default:
		if t = p.Prune(stats); t == MayMatch {
			return t, leafFraction(p, stats)
		}
	}
	switch t {
	case NoMatch:
		return t, 0
	case AllMatch:
		return t, 1
	}
	return t, f
}

// leafFraction estimates a leaf the statistics could not decide.
func leafFraction(p Predicate, stats StatsFunc) float64 {
	switch q := p.(type) {
	case *cmpPred:
		return estimateCmp(q, stats)
	case *rangePred:
		return estimateRange(q, stats)
	case *prefixPred:
		return valueFraction(stats(q.col)) * defaultPrefixFraction
	case *nullPred:
		st := stats(q.col)
		if st == nil || st.Rows == 0 {
			return defaultEqFraction
		}
		f := float64(st.Nulls) / float64(st.Rows)
		if q.negate {
			return 1 - f
		}
		return f
	case *keyPred:
		// Prune already handled complete-universe misses; a present (or
		// unknowable) key defaults to a coin flip over non-null rows.
		return valueFraction(stats(q.col)) * defaultKeyFraction
	}
	return defaultRangeFraction
}

// valueFraction is the non-null fraction of the column's rows (1 without
// statistics: no information, assume values everywhere).
func valueFraction(st *ColStats) float64 {
	if st == nil || st.Rows == 0 {
		return 1
	}
	return float64(st.Rows-st.Nulls) / float64(st.Rows)
}

func estimateCmp(q *cmpPred, stats StatsFunc) float64 {
	st := stats(q.col)
	if st == nil || st.Rows == 0 {
		switch q.op {
		case OpEq:
			return defaultEqFraction
		case OpNe:
			return 1 - defaultEqFraction
		default:
			return defaultRangeFraction
		}
	}
	vals := valueFraction(st)
	switch q.op {
	case OpEq:
		return vals * eqFraction(st, q.lit) * bloomConfidence(st, q.lit)
	case OpNe:
		return vals * (1 - eqFraction(st, q.lit))
	}
	// Inequalities: the histogram's cumulative fraction when one exists
	// (degenerate buckets make <= vs < matter on heavy values), else
	// uniform interpolation across [Min, Max].
	if h := st.Hist; h != nil {
		inclusive := q.op == OpLe || q.op == OpGt // f(<=v); Gt complements it
		if below, ok := h.FractionBelow(q.lit, inclusive); ok {
			if q.op == OpLt || q.op == OpLe {
				return vals * below
			}
			return vals * (1 - below)
		}
	}
	if below, ok := fractionBelow(st, q.lit); ok {
		switch q.op {
		case OpLt, OpLe:
			return vals * below
		default: // OpGt, OpGe
			return vals * (1 - below)
		}
	}
	return vals * defaultRangeFraction
}

// eqFraction estimates the fraction of the column's *non-null* values equal
// to lit. The histogram answers exactly (up to sampling error) when lit sits
// in a degenerate bucket or outside every bucket; otherwise the uniform
// 1/Distinct model applies, capped by the containing bucket's mass (a value
// that is not a heavy hitter cannot exceed its bucket). The divide is
// guarded: Distinct can legitimately be 0 or unset (all-null groups,
// synthetic statistics carrying only a Bloom filter), and 0/0 NaN
// here would poison every cost decision downstream.
func eqFraction(st *ColStats, lit any) float64 {
	if h := st.Hist; h != nil {
		if f, exact := h.EqFraction(lit); exact {
			return f
		}
	}
	base := defaultEqFraction
	if st.Distinct > 0 {
		// With DistinctCapped the count is a lower bound, so 1/Distinct
		// stays an upper bound on the uniform per-value fraction —
		// exactly the conservative direction for merging tasks.
		base = 1 / float64(st.Distinct)
	}
	if h := st.Hist; h != nil {
		if cap, ok := h.EqCap(lit); ok && cap < base {
			base = cap
		}
	}
	return base
}

// bloomConfidence weights a bloom-positive equality estimate by the
// filter's observed false-positive confidence. Prune already turned
// bloom-negative probes into exact zeros before estimation runs, so a
// probed literal reaching here tested positive; under even prior odds that
// the literal is genuinely present, a positive probe confirms presence
// with probability 1/(1+fpp), where fpp ~ fill^K is the filter's expected
// false-positive rate at its recorded (or counted) fill fraction. A crisp
// filter (fpp ~ 0) keeps the full estimate; a filter at the saturation
// bound (fpp ~ 0.13) discounts it toward the coin flip its answer is
// worth. Returns 1 whenever there is no filter, the literal is not a byte
// string the filter covers, or the fill is unknown.
func bloomConfidence(st *ColStats, lit any) float64 {
	if st.Bloom == nil {
		return 1
	}
	switch lit.(type) {
	case string, []byte:
	default:
		return 1
	}
	fill := st.BloomFill
	if fill <= 0 {
		fill = st.Bloom.FillFraction()
	}
	if fill <= 0 || fill >= 1 {
		return 1
	}
	fpp := math.Pow(fill, float64(st.Bloom.K()))
	return 1 / (1 + fpp)
}

func estimateRange(q *rangePred, stats StatsFunc) float64 {
	st := stats(q.col)
	if st == nil || st.Rows == 0 {
		return defaultRangeFraction
	}
	if h := st.Hist; h != nil {
		lo, okLo := h.FractionBelow(q.lo, false)
		hi, okHi := h.FractionBelow(q.hi, true)
		if okLo && okHi {
			return valueFraction(st) * clampFraction(hi-lo)
		}
	}
	lo, okLo := fractionBelow(st, q.lo)
	hi, okHi := fractionBelow(st, q.hi)
	if okLo && okHi {
		return valueFraction(st) * clampFraction(hi-lo)
	}
	return valueFraction(st) * defaultRangeFraction
}

// fractionBelow estimates the fraction of the column's values below lit
// under a uniform spread across [Min, Max]. ok is false for non-numeric
// bounds or missing statistics.
func fractionBelow(st *ColStats, lit any) (float64, bool) {
	if st == nil || !st.HasMinMax {
		return 0, false
	}
	lo, okLo := asFloat(st.Min)
	hi, okHi := asFloat(st.Max)
	v, okV := asFloat(lit)
	if !okLo || !okHi || !okV || hi <= lo {
		return 0, false
	}
	return clampFraction((v - lo) / (hi - lo)), true
}
