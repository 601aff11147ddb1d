package scan

import (
	"math"
	"math/rand"
	"testing"
)

// The estimation-accuracy harness the cost model is anchored by: random
// value distributions (uniform, zipf, clustered) × predicate shapes, each
// checked against ground truth. Two guarantees are pinned:
//
//   - per case, a histogram-backed estimate errs by at most the equi-depth
//     bucket-width bound — one boundary bucket per predicate bound for
//     ranges, one bucket depth for equalities (heavier values get exact
//     degenerate buckets);
//   - in aggregate, histogram estimates are never worse than the uniform
//     interpolation they replace.

// propDistributions generates n values under the named skew.
func propDistribution(rng *rand.Rand, skew string, n int) []int64 {
	vals := make([]int64, n)
	switch skew {
	case "uniform":
		for i := range vals {
			vals[i] = int64(rng.Intn(10000))
		}
	case "zipf":
		z := rand.NewZipf(rng, 1.3, 1, 9999)
		for i := range vals {
			vals[i] = int64(z.Uint64())
		}
	case "clustered":
		base := int64(rng.Intn(5000))
		for i := range vals {
			if i%97 == 0 {
				base = int64(rng.Intn(5000))
			}
			vals[i] = base + int64(rng.Intn(50))
		}
	}
	return vals
}

// trueFraction evaluates p exactly over the values.
func trueFraction(t *testing.T, p Predicate, vals []int64) float64 {
	matched := 0
	for _, v := range vals {
		v := v
		ok, err := p.Eval(Getter(func(string) (any, error) { return v, nil }))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			matched++
		}
	}
	return float64(matched) / float64(len(vals))
}

func TestHistogramEstimationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20110829))
	const trials = 60
	var histErr, uniErr float64
	var cases int
	for trial := 0; trial < trials; trial++ {
		skew := []string{"uniform", "zipf", "clustered"}[trial%3]
		n := 500 + rng.Intn(1500)
		vals := propDistribution(rng, skew, n)

		sample := make([]any, n)
		lo, hi := vals[0], vals[0]
		distinct := make(map[int64]bool, n)
		for i, v := range vals {
			sample[i] = v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			distinct[v] = true
		}
		h := BuildHistogram(sample, 16)
		if h == nil {
			t.Fatalf("%s trial %d: no histogram", skew, trial)
		}
		base := ColStats{Rows: int64(n), HasMinMax: true, Min: lo, Max: hi, Distinct: int64(len(distinct))}
		withHist := base
		withHist.Hist = h
		histStats := func(string) *ColStats { return &withHist }
		uniStats := func(string) *ColStats { return &base }

		pick := func() int64 { return vals[rng.Intn(n)] }
		a, b := pick(), pick()
		if a > b {
			a, b = b, a
		}
		ranges := []Predicate{
			Le("c", pick()),
			Gt("c", pick()),
			Between("c", a, b),
		}
		// Range predicates: each bound contributes at most one boundary
		// bucket of error (the sample here is the full data, so no
		// sampling slack is needed beyond a rounding epsilon).
		rangeBound := 2*h.MaxBucketFraction() + 0.01
		for _, p := range ranges {
			truth := trueFraction(t, p, vals)
			hEst := EstimateFraction(p, histStats)
			uEst := EstimateFraction(p, uniStats)
			if err := math.Abs(hEst - truth); err > rangeBound {
				t.Errorf("%s trial %d: %s: histogram estimate %.4f vs truth %.4f (err %.4f > bound %.4f)",
					skew, trial, p, hEst, truth, err, rangeBound)
			}
			histErr += math.Abs(hEst - truth)
			uniErr += math.Abs(uEst - truth)
			cases++
		}
		// Equality: a value either earned a degenerate bucket (exact
		// answer) or occupies less than one bucket depth — either way the
		// estimate errs by at most one bucket's fraction.
		eqBound := h.MaxBucketFraction() + 0.01
		p := Eq("c", pick())
		truth := trueFraction(t, p, vals)
		hEst := EstimateFraction(p, histStats)
		uEst := EstimateFraction(p, uniStats)
		if err := math.Abs(hEst - truth); err > eqBound {
			t.Errorf("%s trial %d: %s: equality estimate %.4f vs truth %.4f (err %.4f > bound %.4f)",
				skew, trial, p, hEst, truth, err, eqBound)
		}
		histErr += math.Abs(hEst - truth)
		uniErr += math.Abs(uEst - truth)
		cases++
	}
	// The aggregate guarantee: histograms never lose to the uniform model
	// they replace (per-case ties are fine; a small epsilon absorbs float
	// noise).
	if histErr > uniErr+0.01*float64(cases) {
		t.Fatalf("histogram estimates worse than uniform baseline: mean error %.4f vs %.4f over %d cases",
			histErr/float64(cases), uniErr/float64(cases), cases)
	}
}

// TestChoosePlanDecisions pins the cost model's decision table — ChoosePlan
// is pure, so each row is the whole behavior — and the admission bound's
// edge cases.
func TestChoosePlanDecisions(t *testing.T) {
	cases := []struct {
		name     string
		in       PlanInputs
		lazy     bool
		autoSize bool
	}{
		{"no predicate", PlanInputs{}, false, false},
		{"no stats", PlanInputs{HasPredicate: true, Fraction: 0.01, Dirs: 8}, false, false},
		{"selective", PlanInputs{HasPredicate: true, Estimated: true, Fraction: 0.01, Dirs: 8}, true, true},
		{"at cutoff", PlanInputs{HasPredicate: true, Estimated: true, Fraction: 0.25, Dirs: 8}, true, true},
		{"broad", PlanInputs{HasPredicate: true, Estimated: true, Fraction: 0.8, Dirs: 8}, false, true},
		{"one dir", PlanInputs{HasPredicate: true, Estimated: true, Fraction: 0.01, Dirs: 1}, true, false},
	}
	for _, c := range cases {
		got := ChoosePlan(c.in)
		if got.Lazy != c.lazy || got.AutoSize != c.autoSize {
			t.Errorf("%s: ChoosePlan = lazy=%v auto=%v, want lazy=%v auto=%v",
				c.name, got.Lazy, got.AutoSize, c.lazy, c.autoSize)
		}
		if len(got.Reasons) == 0 {
			t.Errorf("%s: no reasons recorded", c.name)
		}
		again := ChoosePlan(c.in)
		if again.Lazy != got.Lazy || again.AutoSize != got.AutoSize || len(again.Reasons) != len(got.Reasons) {
			t.Errorf("%s: ChoosePlan is not deterministic", c.name)
		}
	}

	adm := []struct {
		union, min float64
		want       bool
	}{
		{0.05, 0.01, true},   // 8x + slack covers it
		{0.9, 0.01, false},   // union destroys the selective member's pruning
		{1, 1, true},         // unfiltered members always batch together
		{0.02, 0.0001, true}, // slack keeps near-zero members batchable
		{0.5, 0.05, false},
	}
	for _, c := range adm {
		if got := AdmissionCompatible(c.union, c.min); got != c.want {
			t.Errorf("AdmissionCompatible(%v, %v) = %v, want %v", c.union, c.min, got, c.want)
		}
	}
}
