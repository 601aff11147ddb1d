package bench

import (
	"fmt"
	"math"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out, plus the paper's
// explicitly-deferred future work (Section 4.3: "A deeper analysis of
// load-balancing and re-replication after failures are important avenues
// for future work").

// SkipLevelsRow is one skip-level configuration's costs.
type SkipLevelsRow struct {
	Name      string
	FileBytes int64   // column file size (skip blocks + prefixes add up)
	LoadSec   float64 // modeled load time
	ScanSec   float64 // modeled selective-scan time at 5% selectivity
}

// SkipLevelsResult compares skip-level configurations.
type SkipLevelsResult struct{ Rows []SkipLevelsRow }

// Get returns the row with the given name.
func (r *SkipLevelsResult) Get(name string) SkipLevelsRow {
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	return SkipLevelsRow{}
}

// AblationSkipLevels sweeps the skip-list level configuration (the paper
// fixes 10/100/1000 without justification): more levels cost load-time
// double-buffering and file bytes, fewer levels make long skips walk.
func AblationSkipLevels(cfg Config) (*SkipLevelsResult, error) {
	n := cfg.records(60_000)
	gen := memo(workload.NewSynthetic(cfg.Seed), n)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)

	configs := []struct {
		name   string
		layout colfile.Options
	}{
		{"plain (no skip list)", colfile.Options{Layout: colfile.Plain}},
		{"levels 10", colfile.Options{Layout: colfile.SkipList, Levels: []int{10}}},
		{"levels 100/10", colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}}},
		{"levels 1000/100/10", colfile.Options{Layout: colfile.SkipList, Levels: []int{1000, 100, 10}}},
		{"levels 10000/1000/100/10", colfile.Options{Layout: colfile.SkipList, Levels: []int{10000, 1000, 100, 10}}},
	}

	res := &SkipLevelsResult{}
	for _, c := range configs {
		fs := newFS(cluster, cfg.Seed, true)
		var loadStats sim.TaskStats
		opts := core.LoadOptions{
			SplitRecords: n/4 + 1,
			PerColumn:    map[string]colfile.Options{"map0": c.layout},
		}
		size, err := writeCIF(fs, "/a/cif", gen, n, opts, &loadStats)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}

		// 5%-selective scan: predicate on str0, aggregate map0.
		conf := core.ScanDataset("/a/cif").Columns("str0", "map0").Lazy(true).Conf()
		scan, _, err := scanSplits(fs, &core.InputFormat{}, &conf, func(rec serde.Record) error {
			s, err := rec.Get("str0")
			if err != nil {
				return err
			}
			if !selMatch(s.(string), 0.05) {
				return nil
			}
			_, err = rec.Get("map0")
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		k := float64(Figure7Target) / float64(size)
		loadStats.Scale(k)
		scan.Scale(k)
		res.Rows = append(res.Rows, SkipLevelsRow{
			Name:      c.name,
			FileBytes: size,
			LoadSec:   model.LoadSeconds(loadStats),
			ScanSec:   model.ScanSeconds(scan),
		})
	}

	cfg.printf("Ablation: skip-list level configuration (5%% selective scan)\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "configuration\tfile bytes\tload (s)\tscan (s)")
		for _, row := range res.Rows {
			fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\n", row.Name, row.FileBytes, row.LoadSec, row.ScanSec)
		}
	})
	cfg.printf("\n")
	return res, nil
}

// ParallelismRow reports split counts for one dataset size.
type ParallelismRow struct {
	Blocks         int64 // dataset size in HDFS blocks
	CIFSplits      int
	RCFileSplits   int
	CIFUtilization float64 // min(1, splits/slots)
	RCUtilization  float64
}

// ParallelismResult is the Section 4.3 split-granularity analysis.
type ParallelismResult struct {
	Slots int
	Rows  []ParallelismRow
}

// AblationParallelism quantifies Section 4.3's discussion: CIF reaches
// full cluster parallelism only once the dataset exceeds m x c blocks
// (m map slots, c columns), while RCFile's fine-grained row groups reach
// it much earlier — the price CIF pays for true column files.
func AblationParallelism(cfg Config) (*ParallelismResult, error) {
	// Geometry experiment: shrink blocks (and row groups by the same
	// factor, keeping the paper's r = 16 groups per block) so datasets
	// stay laptop-sized; only split counts matter. A 10-node cluster
	// keeps the m x c crossover inside the sweep. Scale shrinks the
	// cluster (to one node at least) and the sweep with it, so each row
	// keeps its size relative to the crossover and the block geometry
	// stays the same.
	nodes := max(1, int64(math.Round(10*cfg.Scale)))
	cluster := sim.DefaultCluster()
	cluster.Nodes = int(nodes)
	cluster.BlockSize = 32 << 10
	rowGroup := int(cluster.BlockSize) / 16
	slots := cluster.MapSlots()
	// ~300 encoded bytes per synthetic record; each row writes a prefix
	// of the largest row's records.
	recordsFor := func(blocks int64) int64 { return blocks * cluster.BlockSize / 300 }
	sweep := []int64{15, 120, 780, 1560}
	for i, blocks := range sweep {
		sweep[i] = (blocks*nodes + 9) / 10
	}
	gen := memo(workload.NewSynthetic(cfg.Seed), recordsFor(sweep[len(sweep)-1]))
	cols := int64(len(gen.Schema().Fields))

	res := &ParallelismResult{Slots: slots}
	for _, blocks := range sweep {
		n := recordsFor(blocks)
		fs := newFS(cluster, cfg.Seed, true)

		// CIF: split-directories sized at c blocks (one block per column),
		// the paper's geometry.
		opts := core.LoadOptions{SplitBytes: cols * cluster.BlockSize}
		if _, err := writeCIF(fs, "/p/cif", gen, n, opts, nil); err != nil {
			return nil, err
		}
		cifSplits, err := (&core.InputFormat{}).Splits(fs, &mapred.JobConf{InputPaths: []string{"/p/cif"}})
		if err != nil {
			return nil, err
		}

		// RCFile: sync markers permit splits at row-group granularity,
		// the fine-grained splitting Section 4.3 credits it with.
		if _, err := writeRC(fs, "/p/data.rc", gen, n, rcfile.Options{RowGroupBytes: rowGroup}, nil); err != nil {
			return nil, err
		}
		rcSplits, err := (&rcfile.InputFormat{SplitSize: int64(rowGroup)}).Splits(fs, &mapred.JobConf{InputPaths: []string{"/p/data.rc"}})
		if err != nil {
			return nil, err
		}

		res.Rows = append(res.Rows, ParallelismRow{
			Blocks:         blocks,
			CIFSplits:      len(cifSplits),
			RCFileSplits:   len(rcSplits),
			CIFUtilization: utilization(len(cifSplits), slots),
			RCUtilization:  utilization(len(rcSplits), slots),
		})
	}

	cfg.printf("Ablation: split granularity vs cluster parallelism (%d map slots, %d columns)\n", slots, cols)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "dataset (blocks)\tCIF splits\tRCFile splits\tCIF slot use\tRCFile slot use")
		for _, row := range res.Rows {
			fmt.Fprintf(w, "%d\t%d\t%d\t%.0f%%\t%.0f%%\n",
				row.Blocks, row.CIFSplits, row.RCFileSplits,
				100*row.CIFUtilization, 100*row.RCUtilization)
		}
	})
	cfg.printf("\n")
	return res, nil
}

func utilization(splits, slots int) float64 {
	u := float64(splits) / float64(slots)
	if u > 1 {
		return 1
	}
	return u
}

// BlockSizeRow is one compression-block-size setting.
type BlockSizeRow struct {
	BlockBytes int
	MapTime    float64
	DataReadGB float64
}

// BlockSizeResult is the compression block size sweep.
type BlockSizeResult struct{ Rows []BlockSizeRow }

// AblationBlockSize sweeps the CIF-LZO compression block size on the
// Table 1 job. The paper: "We also repeated the experiment with different
// compression block sizes but did not observe a significant difference."
func AblationBlockSize(cfg Config) (*BlockSizeResult, error) {
	n := cfg.records(6000)
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: cfg.Seed})
	cluster := sim.DefaultCluster()
	model := sim.DefaultModelFor(cluster)

	res := &BlockSizeResult{}
	var scale float64
	for _, bs := range []int{32 << 10, 128 << 10, 512 << 10, 2 << 20} {
		fs := newFS(cluster, cfg.Seed, true)
		opts := core.LoadOptions{
			SplitRecords: n/16 + 1,
			PerColumn: map[string]colfile.Options{
				"metadata": {Layout: colfile.Block, Codec: "lzo", BlockBytes: bs},
			},
		}
		size, err := writeCIF(fs, "/b/cif", gen, n, opts, nil)
		if err != nil {
			return nil, err
		}
		if scale == 0 {
			scale = float64(Table1Target) / float64(size)
		}
		conf := core.ScanDataset("/b/cif").Columns("url", "metadata").Conf()
		jr, err := mapred.Run(fs, crawlJob(&core.InputFormat{}, conf))
		if err != nil {
			return nil, err
		}
		total := jr.Total
		total.Scale(scale)
		res.Rows = append(res.Rows, BlockSizeRow{
			BlockBytes: bs,
			MapTime:    model.MapTime(total),
			DataReadGB: gb(total.IO.TotalChargedBytes()),
		})
	}

	cfg.printf("Ablation: CIF-LZO compression block size (Table 1 job)\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "block size\tmap time (s)\tdata read (GB)")
		for _, row := range res.Rows {
			fmt.Fprintf(w, "%dK\t%.1f\t%.1f\n", row.BlockBytes>>10, row.MapTime, row.DataReadGB)
		}
	})
	cfg.printf("\n")
	return res, nil
}

// RecoveryResult is the failure-recovery experiment.
type RecoveryResult struct {
	// Map times (modeled, laptop scale x factor) for the crawl job at
	// three moments: before failures, after failures without
	// re-replication, and after re-replication.
	Healthy        float64
	Degraded       float64
	Recovered      float64
	RemoteDegraded float64 // remote-byte fraction while degraded
	RemoteAfter    float64 // remote-byte fraction after re-replication
}

// AblationRecovery implements the paper's deferred future-work analysis:
// what happens to CIF's co-location when datanodes die, and does
// CPP-driven re-replication restore it?
func AblationRecovery(cfg Config) (*RecoveryResult, error) {
	n := cfg.records(6000)
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: cfg.Seed})
	cluster := sim.DefaultCluster()
	model := sim.DefaultModelFor(cluster)

	fs := newFS(cluster, cfg.Seed, true)
	opts := core.LoadOptions{SplitRecords: n/40 + 1}
	size, err := writeCIF(fs, "/rec/cif", gen, n, opts, nil)
	if err != nil {
		return nil, err
	}
	k := float64(Table1Target) / float64(size)

	run := func() (float64, float64, error) {
		conf := core.ScanDataset("/rec/cif").Columns("url", "metadata").Conf()
		jr, err := mapred.Run(fs, crawlJob(&core.InputFormat{}, conf))
		if err != nil {
			return 0, 0, err
		}
		total := jr.Total
		remote := ratio(float64(total.IO.RemoteBytes), float64(total.IO.TotalChargedBytes()))
		total.Scale(k)
		return model.MapTime(total), remote, nil
	}

	res := &RecoveryResult{}
	if res.Healthy, _, err = run(); err != nil {
		return nil, err
	}
	// Kill three datanodes: some splits lose their local replicas.
	for _, n := range []hdfs.NodeID{1, 7, 23} {
		fs.KillNode(n)
	}
	if res.Degraded, res.RemoteDegraded, err = run(); err != nil {
		return nil, err
	}
	fs.ReReplicate()
	if res.Recovered, res.RemoteAfter, err = run(); err != nil {
		return nil, err
	}

	cfg.printf("Ablation: datanode failure and re-replication (3 of 40 nodes lost)\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "state\tmap time (s)\tremote bytes")
		fmt.Fprintf(w, "healthy\t%.1f\t0.0%%\n", res.Healthy)
		fmt.Fprintf(w, "after failures\t%.1f\t%.1f%%\n", res.Degraded, 100*res.RemoteDegraded)
		fmt.Fprintf(w, "after re-replication\t%.1f\t%.1f%%\n", res.Recovered, 100*res.RemoteAfter)
	})
	cfg.printf("\n")
	return res, nil
}
