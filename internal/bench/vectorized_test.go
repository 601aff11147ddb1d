package bench

import (
	"strings"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/scan"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// TestVectorizedShape is the acceptance gate of batch execution: on the
// selective string-equality arm the vectorized path must halve the modeled
// decode CPU at exactly equal charged bytes (same reads, cheaper loop), every
// record that reaches evaluation must go through a batch, and warm session
// rounds must skip the filter column's decode entirely — DecodeSaved equal to
// the full record count, every round after the warm-up.
func TestVectorizedShape(t *testing.T) {
	t.Parallel()
	shape(t, Vectorized, 0.02, checkVectorized)
}

func BenchmarkVectorizedShape(b *testing.B) {
	for range b.N {
		shape(b, Vectorized, 0.1, checkVectorized)
	}
}

func checkVectorized(t testing.TB, res *VectorizedResult) {
	if len(res.Cells) != 12 {
		t.Fatalf("got %d cells, want 12 (4 layouts x 3 arms)", len(res.Cells))
	}

	for _, c := range res.Cells {
		ctx := c.Layout + "/" + c.Arm
		if c.Matches <= 0 || c.Matches >= res.Records {
			t.Errorf("%s: %d of %d records matched — the arm is degenerate", ctx, c.Matches, res.Records)
		}
		// The filter column is unprunable by construction: every record is
		// batch-evaluated, in at least one batch per split-directory.
		if c.RowsVectorized != res.Records {
			t.Errorf("%s: vectorized %d rows, want all %d", ctx, c.RowsVectorized, res.Records)
		}
		if c.VecBatches <= 0 {
			t.Errorf("%s: no batches built", ctx)
		}
		// Identical reads: execution mode must not move a single charged
		// byte (pruning trajectories are shared, only the loop differs).
		if c.Vector.ChargedBytes != c.Scalar.ChargedBytes {
			t.Errorf("%s: vectorized charged %d bytes, scalar %d — modes read differently",
				ctx, c.Vector.ChargedBytes, c.Scalar.ChargedBytes)
		}
		if c.Vector.LogicalBytes != c.Scalar.LogicalBytes {
			t.Errorf("%s: vectorized logical %d bytes, scalar %d",
				ctx, c.Vector.LogicalBytes, c.Scalar.LogicalBytes)
		}
		// Flat decode is never slower than boxing, on any arm or layout.
		if c.VectorCPU > c.ScalarCPU {
			t.Errorf("%s: vectorized CPU %.5fs exceeds scalar %.5fs", ctx, c.VectorCPU, c.ScalarCPU)
		}

		// Warm rounds: round 1 faces an empty cache; every later round
		// serves the filter column's every vector from it — one hit per
		// batch, the whole dataset's decode saved, and cheaper than cold.
		if len(c.Warm) != res.Rounds {
			t.Fatalf("%s: %d warm rounds recorded, want %d", ctx, len(c.Warm), res.Rounds)
		}
		if r1 := c.Warm[0]; r1.VecCacheHits != 0 || r1.DecodeSaved != 0 {
			t.Errorf("%s: warm-up round hit an empty cache (%d hits, %d saved)",
				ctx, r1.VecCacheHits, r1.DecodeSaved)
		}
		for i, r := range c.Warm[1:] {
			if r.DecodeSaved != res.Records {
				t.Errorf("%s: warm round %d saved %d decoded values, want all %d",
					ctx, i+2, r.DecodeSaved, res.Records)
			}
			if r.VecCacheHits != c.VecBatches {
				t.Errorf("%s: warm round %d served %d batches from cache, want %d",
					ctx, i+2, r.VecCacheHits, c.VecBatches)
			}
			if r.CPU >= c.VectorCPU {
				t.Errorf("%s: warm round %d CPU %.5fs not below cold %.5fs",
					ctx, i+2, r.CPU, c.VectorCPU)
			}
		}
	}

	// The acceptance floor: >= 2x modeled-CPU reduction on the selective
	// string-equality arm wherever the decode loop is the cost — ZLIB's
	// arm is decompression-bound by construction (inflate is slower than
	// boxed decode and identical in both modes), so its floor is only that
	// vectorization still clearly pays under the common term.
	for _, layout := range []string{"plain", "skiplist", "block-lzo"} {
		if c := res.Get(layout, "eq 1/64"); c.CPURatio < 2 {
			t.Errorf("%s eq arm: CPU ratio %.2fx, want >= 2x", layout, c.CPURatio)
		}
	}
	if c := res.Get("block-zlib", "eq 1/64"); c.CPURatio < 1.15 {
		t.Errorf("block-zlib eq arm: CPU ratio %.2fx, want >= 1.15x", c.CPURatio)
	}
}

// TestVectorizedUnprunable checks the sweep's premise check: over
// vectorizedSplits split-directories of 256-row stats windows, the
// string-equality arm must find its tag in every window. At 5 000 records
// each split-directory holds 313 rows, and split 8's 57-row tail lacks the
// tag: it is named. At 1 000 records every window holds 63 rows but still
// every tag the arm needs. Vectorized itself cuts 313-row split-directories
// into one window each, and keeps its shape at that scale.
func TestVectorizedUnprunable(t *testing.T) {
	t.Parallel()
	syn := workload.NewSynthetic(2011)
	idx := syn.Schema().FieldIndex("str1")
	eq := scan.Eq("str1", tagValue(7))
	for _, tc := range []struct {
		records int64
		want    string // "" when the premise holds
	}{
		{5000, "/w/s8/str1 stats group [256,313) holds 57 rows"},
		{1000, ""},
		{2000, ""},
		{8192, ""},
	} {
		gen := memo(cyclicTagGen{syn, idx}, tc.records)
		fs := newFS(sim.SingleNode(), 2011, true)
		opts := core.LoadOptions{
			Default:      colfile.Options{Layout: colfile.Plain, StatsEvery: 256},
			SplitRecords: (tc.records + vectorizedSplits - 1) / vectorizedSplits,
		}
		if _, err := writeCIF(fs, "/w", gen, tc.records, opts, nil); err != nil {
			t.Fatal(err)
		}
		err := checkUnprunable(fs, "/w", syn.Schema().Fields[idx].Type, eq)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%d records: %v", tc.records, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%d records: got %v, want an error naming %q", tc.records, err, tc.want)
		}
	}
	shape(t, Vectorized, 0.05, checkVectorized)
}
