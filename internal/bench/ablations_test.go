package bench

import (
	"testing"

	"colmr/internal/sim"
)

func TestAblationSkipLevels(t *testing.T) {
	t.Parallel()
	shape(t, AblationSkipLevels, 0.02, checkSkipLevels)
}

func BenchmarkAblationSkipLevels(b *testing.B) {
	for range b.N {
		shape(b, AblationSkipLevels, 0.2, checkSkipLevels)
	}
}

func checkSkipLevels(t testing.TB, res *SkipLevelsResult) {
	plain := res.Get("plain (no skip list)")
	paper := res.Get("levels 1000/100/10")
	deep := res.Get("levels 10000/1000/100/10")
	if plain.Name == "" || paper.Name == "" {
		t.Fatal("missing configurations")
	}
	// Any skip-list configuration scans substantially faster than plain
	// at 5% selectivity (the fixed cost of scanning the predicate column
	// is common to both arms).
	if paper.ScanSec*1.5 > plain.ScanSec {
		t.Errorf("skip lists scan %.0fs vs plain %.0fs; want >1.5x", paper.ScanSec, plain.ScanSec)
	}
	// Skip blocks cost bytes: files grow with level count.
	if paper.FileBytes <= plain.FileBytes {
		t.Error("skip-list file not larger than plain file")
	}
	if deep.FileBytes < paper.FileBytes {
		t.Error("deeper levels should not shrink the file")
	}
	// Load overhead stays minor (the Table 2 claim generalizes).
	if paper.LoadSec > plain.LoadSec*1.3 {
		t.Errorf("skip-list load %.0fs vs plain %.0fs; want < 30%% overhead", paper.LoadSec, plain.LoadSec)
	}
}

func TestAblationParallelism(t *testing.T) {
	t.Parallel()
	// Scale 0 runs the experiment's floor, a one-node cluster with the
	// sweep shrunk to match; the block and row-group geometry is scale 1's.
	shape(t, AblationParallelism, 0, func(t testing.TB, res *ParallelismResult) {
		if res.Slots != sim.DefaultCluster().SlotsPerNode {
			t.Errorf("scale 0 ran %d map slots, want one node's", res.Slots)
		}
		checkParallelism(t, res)
	})
}

func BenchmarkAblationParallelism(b *testing.B) {
	for range b.N {
		shape(b, AblationParallelism, 1, checkParallelism)
	}
}

func checkParallelism(t testing.TB, res *ParallelismResult) {
	if len(res.Rows) < 3 {
		t.Fatal("too few rows")
	}
	// RCFile reaches full utilization no later than CIF at every size.
	for _, row := range res.Rows {
		if row.RCUtilization < row.CIFUtilization {
			t.Errorf("%d blocks: RCFile utilization %.2f < CIF %.2f", row.Blocks, row.RCUtilization, row.CIFUtilization)
		}
	}
	// Small dataset: CIF underutilizes the cluster; large: both saturate —
	// the Section 4.3 crossover.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.CIFUtilization >= 1 {
		t.Errorf("smallest dataset already saturates CIF (%d splits)", first.CIFSplits)
	}
	if last.CIFUtilization < 1 {
		t.Errorf("largest dataset does not saturate CIF (%d splits for %d slots)", last.CIFSplits, res.Slots)
	}
	if first.RCUtilization < 0.9 {
		t.Errorf("RCFile should nearly saturate even on the small dataset (%.2f)", first.RCUtilization)
	}
}

func TestAblationBlockSize(t *testing.T) {
	t.Parallel()
	shape(t, AblationBlockSize, 0.01, checkBlockSize)
}

func BenchmarkAblationBlockSize(b *testing.B) {
	for range b.N {
		shape(b, AblationBlockSize, 0.3, checkBlockSize)
	}
}

func checkBlockSize(t testing.TB, res *BlockSizeResult) {
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's observation: no significant difference across block
	// sizes. Allow 35% spread.
	lo, hi := res.Rows[0].MapTime, res.Rows[0].MapTime
	for _, row := range res.Rows {
		if row.MapTime < lo {
			lo = row.MapTime
		}
		if row.MapTime > hi {
			hi = row.MapTime
		}
	}
	if hi > lo*1.35 {
		t.Errorf("block-size sweep spread %.0f%%; paper observed no significant difference", 100*(hi/lo-1))
	}
}

func TestAblationRecovery(t *testing.T) {
	t.Parallel()
	shape(t, AblationRecovery, 0.01, checkRecovery)
}

func BenchmarkAblationRecovery(b *testing.B) {
	for range b.N {
		shape(b, AblationRecovery, 0.3, checkRecovery)
	}
}

func checkRecovery(t testing.TB, res *RecoveryResult) {
	// Failures cost locality; re-replication restores it.
	if res.RemoteDegraded == 0 {
		t.Error("node failures produced no remote reads; experiment vacuous")
	}
	if res.Degraded <= res.Healthy {
		t.Errorf("degraded map time %.2f not worse than healthy %.2f", res.Degraded, res.Healthy)
	}
	if res.RemoteAfter >= res.RemoteDegraded {
		t.Errorf("re-replication did not reduce remote reads: %.2f -> %.2f", res.RemoteDegraded, res.RemoteAfter)
	}
	if res.Recovered > res.Healthy*1.25 {
		t.Errorf("recovered map time %.2f not near healthy %.2f", res.Recovered, res.Healthy)
	}
}
