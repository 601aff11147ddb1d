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
		{Le("x", int64(200)), 1, 1},  // MatchAll: bounds prove every row matches
		{Gt("x", int64(200)), 0, 0},  // Prune: bounds prove no row matches
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
