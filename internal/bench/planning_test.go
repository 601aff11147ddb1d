package bench

import "testing"

// TestPlanningShape is the acceptance gate of the cost-based planner:
// across skew and predicate shape, the chosen plan never runs worse than
// the forced alternatives it deliberated between.
//
// Three guarantees, in decreasing strictness:
//
//   - chosen <= forced-eager on every cell: the planner never loses to the
//     paper's default eager construction, whatever it decides;
//   - when it picks lazy, chosen <= forced-lazy too — the pick did not
//     backfire;
//   - bounded regret everywhere: the conservative lazy cutoff (eager at
//     mid/high fractions, where measured lazy can still edge it out by a
//     sliver) costs at most 25% against the best forced arm.
//
// Plus the accuracy half the decisions rest on: the histogram estimate
// lands within a few points of true selectivity on every cell, and on the
// zipf head — where the uniform 1/Distinct guess is off by 20x — the
// degenerate bucket nails the heavy hitter.
func TestPlanningShape(t *testing.T) {
	t.Parallel()
	shape(t, Planning, 0.02, checkPlanning)
}

func BenchmarkPlanningShape(b *testing.B) {
	for range b.N {
		shape(b, Planning, 0.1, checkPlanning)
	}
}

func checkPlanning(t testing.TB, res *PlanningResult) {
	wantCells := len(PlanningSkews) * 4
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}

	for _, c := range res.Cells {
		name := c.Skew + "/" + c.Arm
		if c.Chosen.Seconds > c.ForcedEager.Seconds*1.0001 {
			t.Errorf("%s: chosen plan %.4fs worse than forced eager %.4fs",
				name, c.Chosen.Seconds, c.ForcedEager.Seconds)
		}
		if c.Lazy && c.Chosen.Seconds > c.ForcedLazy.Seconds*1.0001 {
			t.Errorf("%s: planner picked lazy yet %.4fs worse than forced lazy %.4fs",
				name, c.Chosen.Seconds, c.ForcedLazy.Seconds)
		}
		min := c.ForcedEager.Seconds
		if c.ForcedLazy.Seconds < min {
			min = c.ForcedLazy.Seconds
		}
		if c.Chosen.Seconds > min*1.25 {
			t.Errorf("%s: chosen plan %.4fs regrets more than 25%% vs best forced %.4fs",
				name, c.Chosen.Seconds, min)
		}
		if c.AbsError > 0.05 {
			t.Errorf("%s: estimate %.4f vs truth %.4f — error %.4f above 0.05",
				name, c.EstFraction, c.TrueFraction, c.AbsError)
		}
	}

	// The headline cell: zipf's heavy head. Uniform interpolation guesses
	// 1/64 ~= 0.016; the equi-depth degenerate bucket must see the real
	// ~0.3+ fraction (and the planner therefore goes eager, not lazy).
	head := res.Get("zipf", "eq head")
	if head.Skew == "" {
		t.Fatal("missing zipf/eq head cell")
	}
	if head.EstFraction < 0.2 {
		t.Errorf("zipf head estimated %.4f; histogram missed the heavy hitter (truth %.4f)",
			head.EstFraction, head.TrueFraction)
	}
	if head.Lazy {
		t.Error("zipf head chose lazy despite a dominant-value predicate")
	}

	// Clustered data elides at the scheduler tier: a tail equality touches
	// a sliver of the directories and is cheaper than the same predicate
	// over uniform placement.
	if cl, un := res.Get("clustered", "eq tail"), res.Get("uniform", "eq tail"); cl.Chosen.Seconds >= un.Chosen.Seconds {
		t.Errorf("clustered eq tail %.4fs not cheaper than uniform %.4fs — elision priced nothing",
			cl.Chosen.Seconds, un.Chosen.Seconds)
	}
}
