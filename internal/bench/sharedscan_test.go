package bench

import "testing"

// TestSharedScanShape is the acceptance gate of the batch scheduler: four
// overlapping jobs co-scheduled must charge at least 2x less than four solo
// runs, a single-job batch must cost a solo run, and disjoint mixes must
// never share tasks (SharedScan itself fails if any job's match count
// diverges between modes).
func TestSharedScanShape(t *testing.T) {
	t.Parallel()
	shape(t, SharedScan, 0.02, checkSharedScan)
}

func BenchmarkSharedScanShape(b *testing.B) {
	for range b.N {
		shape(b, SharedScan, 0.1, checkSharedScan)
	}
}

func checkSharedScan(t testing.TB, res *SharedScanResult) {
	if len(res.Cells) != 2*len(SharedScanJobs) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), 2*len(SharedScanJobs))
	}

	// The headline: 4 overlapping jobs, >= 2x charged-byte reduction.
	c := res.Get(4, true)
	if c.ChargedRatio < 2 {
		t.Errorf("4 overlapping jobs: charged ratio %.2fx, want >= 2x (solo %d, batch %d)",
			c.ChargedRatio, c.Solo.ChargedBytes, c.Batch.ChargedBytes)
	}
	if c.SharedTasks == 0 || c.SharedReads == 0 || c.BytesSaved <= 0 {
		t.Errorf("4 overlapping jobs: sharing never fired (%d tasks, %d reads, %d saved)",
			c.SharedTasks, c.SharedReads, c.BytesSaved)
	}

	// Sharing monotonically pays off with overlap concurrency.
	if r2, r8 := res.Get(2, true).ChargedRatio, res.Get(8, true).ChargedRatio; r2 < 1.5 || r8 < r2 {
		t.Errorf("overlap ratios not growing with concurrency: 2 jobs %.2fx, 8 jobs %.2fx", r2, r8)
	}

	// A batch of one is a solo run: same charged bytes, no shared tasks.
	c1 := res.Get(1, true)
	if c1.SharedTasks != 0 {
		t.Errorf("single-job batch produced %d shared tasks", c1.SharedTasks)
	}
	if c1.Batch.ChargedBytes != c1.Solo.ChargedBytes {
		t.Errorf("single-job batch charged %d, solo %d", c1.Batch.ChargedBytes, c1.Solo.ChargedBytes)
	}

	// Disjoint mixes: no shared tasks, and batching costs within 1% of the
	// solo runs (same cursors, same bytes — only task grouping differs).
	for _, k := range SharedScanJobs {
		d := res.Get(k, false)
		if d.SharedTasks != 0 {
			t.Errorf("%d disjoint jobs produced %d shared tasks", k, d.SharedTasks)
		}
		if d.ChargedRatio < 0.99 || d.ChargedRatio > 1.01 {
			t.Errorf("%d disjoint jobs: charged ratio %.3fx, want ~1x", k, d.ChargedRatio)
		}
	}
}
