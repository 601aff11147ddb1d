package bench

import "testing"

// TestBloomShape is the acceptance gate of Bloom-filter pruning: on
// unsorted high-cardinality strings, a selective equality must charge at
// least 4x fewer bytes than zone-maps-only, whole splits must be elided by
// file-aggregate filters, and shapes the filter cannot decide (ranges) or
// a disabled filter must cost byte-for-byte the baseline. Record
// equivalence between the runs is enforced inside Bloom, which fails on
// mismatch.
func TestBloomShape(t *testing.T) {
	t.Parallel()
	shape(t, Bloom, 0.02, checkBloom)
}

func BenchmarkBloomShape(b *testing.B) {
	for range b.N {
		shape(b, Bloom, 0.1, checkBloom)
	}
}

func checkBloom(t testing.TB, res *BloomResult) {
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(res.Cells))
	}

	for _, name := range []string{"eq present", "eq absent"} {
		c := res.Get(name)
		if c.ChargedRatio < 4 {
			t.Errorf("%s: charged ratio %.1fx, want >= 4x", name, c.ChargedRatio)
		}
		if c.SplitsScheduledBloom >= c.SplitsScheduledBase {
			t.Errorf("%s: bloom scheduled %d splits, baseline %d — file filters elided nothing",
				name, c.SplitsScheduledBloom, c.SplitsScheduledBase)
		}
		if c.Bloom.ChargedBytes > c.Base.ChargedBytes {
			t.Errorf("%s: bloom charged %d > baseline %d", name, c.Bloom.ChargedBytes, c.Base.ChargedBytes)
		}
	}
	if c := res.Get("eq present"); c.Matches == 0 {
		t.Error("eq present: probe value matched nothing — the sweep is not probing a real value")
	}
	if c := res.Get("eq absent"); c.Matches != 0 {
		t.Errorf("eq absent: %d matches for an impossible value", c.Matches)
	}

	// Exactly 1.0x — byte-identical statistics — when the filter cannot
	// apply (range shapes over bloomed files) or the files carry no
	// filters at all (written with Options.NoBloom; the consultation
	// toggle must be completely inert over them).
	for _, name := range []string{"range", "eq present, no filters"} {
		c := res.Get(name)
		if c.Bloom.ChargedBytes != c.Base.ChargedBytes {
			t.Errorf("%s: charged bytes differ: %d vs %d (want byte-identical)",
				name, c.Bloom.ChargedBytes, c.Base.ChargedBytes)
		}
		if c.BloomPruned != 0 {
			t.Errorf("%s: %d groups attributed to the filter, want 0", name, c.BloomPruned)
		}
	}
	if c := res.Get("range"); c.Matches == 0 {
		t.Error("range: matched nothing — the range arm is vacuous")
	}

	// Writing filters must not change the scan itself: with consultation
	// off, the bloomed and filter-less datasets deliver exactly the same
	// logical bytes for the same predicate. (Charged bytes may differ by
	// trailing-transfer-unit geometry — the bloomed files' stats sections
	// are longer — which is why the comparison is logical.)
	withFilters, without := res.Get("eq present"), res.Get("eq present, no filters")
	if withFilters.Base.LogicalBytes != without.Base.LogicalBytes {
		t.Errorf("baseline logical bytes differ across datasets: %d (filters written) vs %d (none)",
			withFilters.Base.LogicalBytes, without.Base.LogicalBytes)
	}
	if withFilters.Matches != without.Matches {
		t.Errorf("matches differ across datasets: %d vs %d", withFilters.Matches, without.Matches)
	}
}
