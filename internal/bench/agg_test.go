package bench

import "testing"

// TestAggregationShape is the acceptance gate of aggregation pushdown: the
// in-scan fold must never cost more modeled CPU than materializing records
// and folding them in a mapper, must beat it by >= 5x for COUNT under the
// selective clustered predicate (pruning plus stats shortcut answer almost
// everything without decoding), and the dictionary-id sweep must show the
// id path winning at exactly equal charged bytes with integer compares
// doing the work. The experiment itself enforces that both sides of every
// cell produce identical aggregate rows and identical pruning trajectories
// — reaching the assertions below means the answers already agreed.
func TestAggregationShape(t *testing.T) {
	t.Parallel()
	shape(t, Aggregation, 0.02, checkAggregation)
}

func BenchmarkAggregationShape(b *testing.B) {
	for range b.N {
		shape(b, Aggregation, 0.1, checkAggregation)
	}
}

func checkAggregation(t testing.TB, res *AggResult) {
	if len(res.Cells) != 10 {
		t.Fatalf("got %d cells, want 10 (2 layouts x 5 arms)", len(res.Cells))
	}
	if len(res.Dict) != 3 {
		t.Fatalf("got %d dictionary cells, want 3", len(res.Dict))
	}

	for _, c := range res.Cells {
		ctx := c.Layout + "/" + c.Arm
		if c.Groups <= 0 {
			t.Errorf("%s: no aggregate rows produced", ctx)
		}
		// Folding in the scan is never more expensive than building record
		// objects just to fold them.
		if c.PushCPU > c.MatCPU {
			t.Errorf("%s: pushdown CPU %.5fs exceeds materializing %.5fs",
				ctx, c.PushCPU, c.MatCPU)
		}
		// Pushdown never reads more than the materializing side — the
		// pruning trajectory is shared and shortcuts only subtract.
		if c.Push.ChargedBytes > c.Mat.ChargedBytes {
			t.Errorf("%s: pushdown charged %d bytes, materializing %d",
				ctx, c.Push.ChargedBytes, c.Mat.ChargedBytes)
		}
		// The pushdown side never constructs a record.
		if c.Push.ValuesMaterialized != 0 {
			t.Errorf("%s: pushdown materialized %d values", ctx, c.Push.ValuesMaterialized)
		}
	}

	for _, layout := range []string{"skiplist", "dcsl-str1"} {
		// The headline acceptance arm: COUNT under a clustered selective
		// predicate. Zone pruning drops non-matching windows, the stats
		// shortcut answers matching ones — the materializing side still has
		// to decode and build every surviving record.
		c := res.Get(layout, "count clustered")
		if c.Rows <= 0 || c.Rows >= res.Records {
			t.Fatalf("%s/count clustered: %d of %d rows — arm is degenerate",
				layout, c.Rows, res.Records)
		}
		if c.GroupsShortcut <= 0 {
			t.Errorf("%s/count clustered: stats shortcut never fired", layout)
		}
		if c.CPURatio < 5 {
			t.Errorf("%s/count clustered: pushdown only %.1fx cheaper, want >= 5x",
				layout, c.CPURatio)
		}
		// The full-scan stats arm: every window answered from statistics,
		// nothing decoded at all.
		s := res.Get(layout, "stats full scan")
		if s.Rows != res.Records {
			t.Errorf("%s/stats full scan: folded %d rows, want all %d", layout, s.Rows, res.Records)
		}
		if s.GroupsShortcut <= 0 {
			t.Errorf("%s/stats full scan: stats shortcut never fired", layout)
		}
		if s.Push.DecodedBytes != 0 {
			t.Errorf("%s/stats full scan: pushdown decoded %d bytes, want 0",
				layout, s.Push.DecodedBytes)
		}
		// GROUP BY keys must be decoded row by row — no shortcut applies.
		g := res.Get(layout, "group by")
		if g.GroupsShortcut != 0 {
			t.Errorf("%s/group by: stats shortcut fired on a grouped aggregate", layout)
		}
		if g.Groups != aggTagCycle {
			t.Errorf("%s/group by: %d groups, want %d", layout, g.Groups, aggTagCycle)
		}
	}

	for _, d := range res.Dict {
		// Identical reads: switching the evaluation representation moves no
		// bytes (the experiment already verified pruning counters match).
		if d.ID.ChargedBytes != d.Str.ChargedBytes {
			t.Errorf("dict %s: id path charged %d bytes, string path %d",
				d.Arm, d.ID.ChargedBytes, d.Str.ChargedBytes)
		}
		if d.IDCPU > d.StrCPU {
			t.Errorf("dict %s: id path CPU %.5fs exceeds string path %.5fs",
				d.Arm, d.IDCPU, d.StrCPU)
		}
	}
	// Present needles are resolved to an id and compared per row; the
	// absent needle is answered by the dictionary probe alone — whole
	// windows decided without a single per-row compare.
	for _, arm := range []string{"eq present", "ne present"} {
		if d := res.GetDict(arm); d.DictIdCompares <= 0 {
			t.Errorf("dict %s: no dictionary-id compares recorded", arm)
		}
	}
	if d := res.GetDict("eq absent"); d.DictIdCompares != 0 {
		t.Errorf("dict eq absent: %d id compares, want 0 (probe answers the window)", d.DictIdCompares)
	}
	if d := res.GetDict("eq absent"); d.Rows != 0 {
		t.Errorf("dict eq absent: counted %d rows, want 0", d.Rows)
	}
}
