package bench

import "testing"

// TestElisionShape is the acceptance gate of the scheduler pruning tier:
// on a multi-split clustered dataset with a selective predicate, fewer
// splits are scheduled than split-directories exist, charged I/O drops
// against the group-tier-only baseline, and the two runs return the same
// records (enforced inside Elision, which fails on mismatch).
func TestElisionShape(t *testing.T) {
	t.Parallel()
	shape(t, Elision, 0.01, checkElision)
}

func BenchmarkElisionShape(b *testing.B) {
	for range b.N {
		shape(b, Elision, 0.1, checkElision)
	}
}

func checkElision(t testing.TB, res *ElisionResult) {
	if len(res.Cells) != len(ElisionFractions) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(ElisionFractions))
	}

	for _, c := range res.Cells {
		if c.SplitsTotal != elisionSplits {
			t.Fatalf("@%.2f%%: dataset has %d split-directories, want %d", c.Fraction*100, c.SplitsTotal, elisionSplits)
		}
		// Elision never charges more than the baseline.
		if c.Elision.ChargedBytes > c.Baseline.ChargedBytes {
			t.Errorf("@%.2f%%: elision charged %d > baseline %d",
				c.Fraction*100, c.Elision.ChargedBytes, c.Baseline.ChargedBytes)
		}
	}

	// At <= 1% selectivity over a clustered column, whole splits must be
	// elided and charged bytes must genuinely drop.
	for _, frac := range []float64{0.0001, 0.001, 0.01} {
		c := res.Get(frac)
		if c.SplitsScheduled >= c.SplitsTotal {
			t.Errorf("@%.2f%%: %d of %d splits scheduled — nothing elided", frac*100, c.SplitsScheduled, c.SplitsTotal)
		}
		if c.ChargedRatio < 2 {
			t.Errorf("@%.2f%%: charged ratio %.1fx, want >= 2x", frac*100, c.ChargedRatio)
		}
	}

	// At 100% nothing is elidable and elision must cost exactly the
	// baseline (same splits, same reads).
	c := res.Get(1.0)
	if c.SplitsScheduled != c.SplitsTotal {
		t.Errorf("@100%%: %d of %d splits scheduled, want all", c.SplitsScheduled, c.SplitsTotal)
	}
	if c.Elision.ChargedBytes != c.Baseline.ChargedBytes {
		t.Errorf("@100%%: elision charged %d != baseline %d", c.Elision.ChargedBytes, c.Baseline.ChargedBytes)
	}
}
