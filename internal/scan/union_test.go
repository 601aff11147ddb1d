package scan

import (
	"fmt"
	"math"
	"testing"
)

func TestUnionSharedIsOrOfDistinct(t *testing.T) {
	a := Le("int0", 100)
	b := Gt("str0", "m")
	u := NewUnion([]Predicate{a, b, Le("int0", 100)})
	if u.Shared == nil {
		t.Fatal("shared predicate is nil")
	}
	want := Or(a, b).String()
	if got := u.Shared.String(); got != want {
		t.Fatalf("shared = %s, want %s", got, want)
	}
	if len(u.Groups) != 2 {
		t.Fatalf("%d eval groups, want 2", len(u.Groups))
	}
	if u.EvalGroups[0] != u.EvalGroups[2] {
		t.Fatalf("identical predicates got distinct eval groups %v", u.EvalGroups)
	}
	if u.EvalGroups[0] == u.EvalGroups[1] {
		t.Fatalf("distinct predicates share eval group %v", u.EvalGroups)
	}
}

func TestUnionSingleMemberKeepsPredicate(t *testing.T) {
	p := Between("int0", 1, 10)
	u := NewUnion([]Predicate{p})
	if u.Shared != p {
		t.Fatalf("single-member shared = %v, want the member's own predicate", u.Shared)
	}
	if u.Groups[0] != p {
		t.Fatal("residual is not the member predicate")
	}
}

func TestUnionUnfilteredMemberDisablesPushdown(t *testing.T) {
	u := NewUnion([]Predicate{Le("int0", 100), nil})
	if u.Shared != nil {
		t.Fatalf("shared = %v with an unfiltered member, want nil", u.Shared)
	}
	if u.EvalGroups[1] != -1 {
		t.Fatalf("unfiltered member eval group = %d, want -1", u.EvalGroups[1])
	}
	if u.Groups[u.EvalGroups[0]] == nil {
		t.Fatal("filtered member lost its residual")
	}
}

// TestUnionSubMatchesNewUnion: the union of a subset of members, derived
// from the whole set's eval groups, is the one NewUnion builds from the
// subset's own predicates — same shared predicate, same groups.
func TestUnionSubMatchesNewUnion(t *testing.T) {
	preds := []Predicate{Le("int0", 100), nil, Gt("str0", "m"), Le("int0", 100), Between("int0", 1, 10)}
	all := NewUnion(preds)
	for _, members := range [][]int{{0}, {1}, {0, 3}, {2, 0, 3}, {0, 1, 2}, {4, 3, 2, 0}, {0, 1, 2, 3, 4}} {
		sub := make([]Predicate, len(members))
		for i, m := range members {
			sub[i] = preds[m]
		}
		want, got := NewUnion(sub), all.Sub(members)
		if fmt.Sprint(got.Shared) != fmt.Sprint(want.Shared) || fmt.Sprint(got.EvalGroups) != fmt.Sprint(want.EvalGroups) || fmt.Sprint(got.Groups) != fmt.Sprint(want.Groups) {
			t.Errorf("members %v: Sub = %v %v %v, NewUnion = %v %v %v", members, got.Shared, got.EvalGroups, got.Groups, want.Shared, want.EvalGroups, want.Groups)
		}
	}
}

func TestEstimateFraction(t *testing.T) {
	stats := func(col string) *ColStats {
		switch col {
		case "x": // uniform [0, 100], no nulls
			return &ColStats{Rows: 1000, HasMinMax: true, Min: int64(0), Max: int64(100), Distinct: 64, DistinctCapped: true}
		case "n": // half null
			return &ColStats{Rows: 1000, Nulls: 500}
		}
		return nil
	}
	cases := []struct {
		pred   Predicate
		lo, hi float64
	}{
		{Le("x", int64(50)), 0.4, 0.6},
		{Gt("x", int64(75)), 0.15, 0.35},
		{Between("x", int64(25), int64(75)), 0.4, 0.6},
		{Le("x", int64(200)), 1, 1},  // AllMatch: bounds prove every row matches
		{Gt("x", int64(200)), 0, 0},  // NoMatch: bounds prove no row matches
		{Eq("x", int64(7)), 0, 0.05}, // 1/Distinct
		{IsNull("n"), 0.5, 0.5},
		{NotNull("n"), 0.5, 0.5},
		{And(Le("x", int64(50)), Gt("x", int64(25))), 0.05, 0.45},
		{Or(Le("x", int64(25)), Gt("x", int64(75))), 0.3, 0.7},
		{nil, 1, 1},
	}
	for _, c := range cases {
		f := EstimateFraction(c.pred, stats)
		name := "nil"
		if c.pred != nil {
			name = c.pred.String()
		}
		if f < c.lo || f > c.hi {
			t.Errorf("EstimateFraction(%s) = %.3f, want in [%.2f, %.2f]", name, f, c.lo, c.hi)
		}
	}
}

// TestEstimateWalksOnce: the estimator asks each leaf's statistics at most
// twice (its Prune and its formula) however deep the tree, and matches the
// per-node reference that asked Prune at every node — NaN estimates from
// infinite bounds included, which only the children's verdicts may decide.
func TestEstimateWalksOnce(t *testing.T) {
	lookups := 0
	stats := func(col string) *ColStats {
		lookups++
		switch col {
		case "x":
			return &ColStats{Rows: 1000, HasMinMax: true, Min: int64(0), Max: int64(100), Distinct: 64}
		case "n":
			return &ColStats{Rows: 1000, Nulls: 500}
		case "f": // infinite bounds: interpolation yields NaN
			return &ColStats{Rows: 1000, HasMinMax: true, Min: math.Inf(-1), Max: math.Inf(1)}
		}
		return nil
	}
	leaves := []Predicate{
		Le("x", int64(50)), Gt("x", int64(25)), IsNull("n"), Ne("x", int64(7)),
		Ge("x", int64(10)), NotNull("n"), Lt("x", int64(90)), Eq("x", int64(3)),
	}
	// Eight undecided leaves under three levels of && and ||: nothing
	// short-circuits, so every leaf is reached.
	deep := And(
		Or(And(leaves[0], leaves[1]), And(leaves[2], leaves[3])),
		Or(And(leaves[4], leaves[5]), Or(leaves[6], leaves[7])))
	nan := Le("f", 0.0)
	for _, c := range []struct {
		pred    Predicate
		leaves  int
		nanWant bool
	}{
		{deep, 8, false},
		{Not(deep), 8, false},
		{And(nan, Gt("x", int64(200))), 2, false}, // NoMatch beside a NaN estimate
		{Or(nan, Le("x", int64(200))), 2, false},  // AllMatch beside a NaN estimate
		{Not(nan), 1, true},
		{And(nan, Le("x", int64(50))), 2, true},
	} {
		lookups = 0
		got := EstimateFraction(c.pred, stats)
		if lookups > 2*c.leaves {
			t.Errorf("%s: %d statistics lookups for %d leaves, want at most %d", c.pred, lookups, c.leaves, 2*c.leaves)
		}
		want := clampFraction(estimatePerNode(c.pred, stats))
		if math.IsNaN(want) != c.nanWant {
			t.Fatalf("%s: reference estimate %v; the case expects NaN=%v", c.pred, want, c.nanWant)
		}
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s: EstimateFraction = %v, per-node reference %v", c.pred, got, want)
		}
	}
}

// estimatePerNode is the estimator that asked Prune at every node, each
// composite's Prune walking its whole subtree again: the reference the
// one-walk estimator must match.
func estimatePerNode(p Predicate, stats StatsFunc) float64 {
	switch p.Prune(stats) {
	case NoMatch:
		return 0
	case AllMatch:
		return 1
	}
	switch q := p.(type) {
	case *andPred:
		f := 1.0
		for _, k := range q.kids {
			f *= clampFraction(estimatePerNode(k, stats))
		}
		return f
	case *orPred:
		miss := 1.0
		for _, k := range q.kids {
			miss *= 1 - clampFraction(estimatePerNode(k, stats))
		}
		return 1 - miss
	case *notPred:
		return 1 - clampFraction(estimatePerNode(q.kid, stats))
	}
	return leafFraction(p, stats)
}

// TestEstimateEqZeroDistinct: an all-null group, or statistics built by
// hand with only a Bloom filter, carry no distinct count, so the 1/Distinct
// uniform guess must be guarded — the estimate falls back to
// defaultEqFraction and never divides by zero, including on the
// bloom-positive path where the guess is then weighted by filter
// confidence.
func TestEstimateEqZeroDistinct(t *testing.T) {
	b := NewBloomSized(10, 1<<12)
	for i := 0; i < 10; i++ {
		b.AddHash(BloomHashString(fmt.Sprintf("k-%d", i)))
	}
	cases := []struct {
		name string
		st   *ColStats
	}{
		{"no bloom", &ColStats{Rows: 1000}},
		{"bloom, counted fill", &ColStats{Rows: 1000, HasMinMax: true, Min: "a", Max: "z", Bloom: b}},
		{"bloom, recorded fill", &ColStats{Rows: 1000, HasMinMax: true, Min: "a", Max: "z", Bloom: b, BloomFill: 0.05}},
	}
	for _, c := range cases {
		stats := func(string) *ColStats { return c.st }
		f := EstimateFraction(Eq("s", "k-3"), stats)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("%s: EstimateFraction = %v", c.name, f)
		}
		if f <= 0 || f > defaultEqFraction {
			t.Errorf("%s: EstimateFraction = %v, want in (0, %v]", c.name, f, defaultEqFraction)
		}
	}
}

// TestEstimateEqBloomConfidence: a bloom-negative equality estimates to an
// exact zero (pruning consistency), and a positive one is discounted by the
// filter's recorded fill — a saturated filter's answer is worth less than a
// crisp one's.
func TestEstimateEqBloomConfidence(t *testing.T) {
	b := NewBloomSized(10, 1<<12)
	for i := 0; i < 10; i++ {
		b.AddHash(BloomHashString(fmt.Sprintf("k-%d", i)))
	}
	// Any small filter has false positives; probe until a key tests
	// genuinely negative so the zero assertion is about estimation, not
	// filter luck.
	absent := ""
	for i := 0; i < 1000; i++ {
		if k := fmt.Sprintf("absent-%d", i); !b.MayContainString(k) {
			absent = k
			break
		}
	}
	if absent == "" {
		t.Fatal("no negative probe found in 1000 tries")
	}
	if f := EstimateFraction(Eq("s", absent), func(string) *ColStats {
		return &ColStats{Rows: 1000, Distinct: 10, HasMinMax: true, Min: "a", Max: "z", Bloom: b}
	}); f != 0 {
		t.Errorf("bloom-negative equality estimates %v, want 0", f)
	}
	crisp := EstimateFraction(Eq("s", "k-3"), func(string) *ColStats {
		return &ColStats{Rows: 1000, Distinct: 10, HasMinMax: true, Min: "a", Max: "z", Bloom: b, BloomFill: 0.05}
	})
	saturated := EstimateFraction(Eq("s", "k-3"), func(string) *ColStats {
		return &ColStats{Rows: 1000, Distinct: 10, HasMinMax: true, Min: "a", Max: "z", Bloom: b, BloomFill: 0.95}
	})
	if crisp <= 0 || saturated <= 0 {
		t.Fatalf("positive probes estimate crisp=%v saturated=%v, want > 0", crisp, saturated)
	}
	if saturated >= crisp {
		t.Errorf("saturated filter estimate %v not discounted below crisp %v", saturated, crisp)
	}
}

func TestEstimateRowsScales(t *testing.T) {
	stats := func(string) *ColStats {
		return &ColStats{Rows: 100, HasMinMax: true, Min: int64(0), Max: int64(100)}
	}
	rows := EstimateRows(Le("x", int64(10)), stats, 10000)
	if rows < 500 || rows > 2000 {
		t.Fatalf("EstimateRows = %.0f, want ~1000", rows)
	}
}
