package bench

import "testing"

// TestSelectivityShape is the acceptance gate of the scan subsystem: at
// low selectivity, predicate pushdown must read/deserialize measurably
// fewer bytes than scan-then-filter (per sim.TaskStats), while returning
// exactly as many records.
func TestSelectivityShape(t *testing.T) {
	t.Parallel()
	shape(t, Selectivity, 0.1, checkSelectivity)
}

func checkSelectivity(t testing.TB, res *SelectivityResult) {
	if len(res.Cells) != len(SelectivityLayouts)*len(SelectivityFractions) {
		t.Fatalf("got %d cells, want %d", len(res.Cells),
			len(SelectivityLayouts)*len(SelectivityFractions))
	}

	for _, c := range res.Cells {
		// Result equivalence at the record-count level is enforced inside
		// Selectivity (it fails on mismatch); here we sanity-check the
		// match counts roughly track the target fraction.
		want := float64(res.Records) * c.Fraction
		if c.Fraction >= 0.01 {
			if f := float64(c.Matches); f < want*0.5 || f > want*1.5 {
				t.Errorf("%s@%.2f%%: %d matches, want ~%.0f", c.Layout, c.Fraction*100, c.Matches, want)
			}
		}
		// Pushdown never decodes more than scan-then-filter.
		if c.Pushdown.DecodedBytes > c.ScanFilter.DecodedBytes {
			t.Errorf("%s@%.2f%%: pushdown decoded %d > scan+filter %d",
				c.Layout, c.Fraction*100, c.Pushdown.DecodedBytes, c.ScanFilter.DecodedBytes)
		}
	}

	// The acceptance criterion: at <= 1% selectivity on SkipList and
	// Block layouts, pushdown deserializes measurably fewer bytes.
	for _, layout := range []string{"skiplist", "block"} {
		for _, frac := range []float64{0.0001, 0.001, 0.01} {
			c := res.Get(layout, frac)
			if c.Layout == "" {
				t.Fatalf("missing cell %s@%.4f", layout, frac)
			}
			if c.DecodeRatio < 1.5 {
				t.Errorf("%s@%.2f%%: decode ratio %.2fx, want >= 1.5x",
					layout, frac*100, c.DecodeRatio)
			}
		}
		// And the advantage must grow as selectivity falls.
		if res.Get(layout, 0.0001).DecodeRatio <= res.Get(layout, 0.01).DecodeRatio {
			t.Errorf("%s: decode ratio does not grow with selectivity (%.1fx at 0.01%% vs %.1fx at 1%%)",
				layout, res.Get(layout, 0.0001).DecodeRatio, res.Get(layout, 0.01).DecodeRatio)
		}
	}

	// Zone maps must actually prune groups on the skip-list layout at the
	// lowest selectivity (block frames can be too coarse at test scale).
	if c := res.Get("skiplist", 0.0001); c.Pushdown.RecordsPruned == 0 {
		t.Error("skiplist@0.01%: no records pruned by zone maps")
	}

	// At 100% selectivity pushdown must not cost meaningfully more than
	// scan-then-filter (it reads the same data; the full scan also reads
	// the int0 column it projects).
	for _, layout := range SelectivityLayouts {
		c := res.Get(layout, 1.0)
		if c.Pushdown.Seconds > c.ScanFilter.Seconds*1.25 {
			t.Errorf("%s@100%%: pushdown %.3fs vs scan+filter %.3fs — pushdown should not regress",
				layout, c.Pushdown.Seconds, c.ScanFilter.Seconds)
		}
	}
}
