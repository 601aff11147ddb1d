package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// ColocationResult reproduces Section 6.4: the crawl job over CIF with and
// without the column placement policy.
type ColocationResult struct {
	// MapTimeCPP / MapTimeDefault are modeled map times (seconds at paper
	// scale) with ColumnPlacementPolicy vs HDFS default placement.
	MapTimeCPP     float64
	MapTimeDefault float64
	// Speedup is MapTimeDefault / MapTimeCPP (the paper reports 5.1x).
	Speedup float64
	// RemoteFractionCPP / RemoteFractionDefault are the fractions of
	// charged bytes read over the network.
	RemoteFractionCPP     float64
	RemoteFractionDefault float64
}

// Colocation reproduces Section 6.4's co-location experiment.
func Colocation(cfg Config) (*ColocationResult, error) {
	n := cfg.records(8000)
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: cfg.Seed})
	cluster := sim.DefaultCluster()
	model := sim.DefaultModelFor(cluster)

	run := func(cpp bool) (float64, float64, error) {
		fs := newFS(cluster, cfg.Seed, cpp)
		opts := core.LoadOptions{SplitRecords: n/40 + 1}
		size, err := writeCIF(fs, "/c/cif", gen, n, opts, nil)
		if err != nil {
			return 0, 0, err
		}
		conf := core.ScanDataset("/c/cif").Columns("url", "metadata").Conf()
		jr, err := mapred.Run(fs, crawlJob(&core.InputFormat{}, conf))
		if err != nil {
			return 0, 0, err
		}
		total := jr.Total
		remoteFrac := ratio(float64(total.IO.RemoteBytes), float64(total.IO.TotalChargedBytes()))
		// Anchor on dataset size exactly like Table 1, so the CPP arm's
		// map time is comparable to Table 1's CIF row.
		total.Scale(float64(Table1Target) / float64(maxi64(size, 1)))
		return model.MapTime(total), remoteFrac, nil
	}

	withCPP, remCPP, err := run(true)
	if err != nil {
		return nil, err
	}
	withDefault, remDef, err := run(false)
	if err != nil {
		return nil, err
	}
	res := &ColocationResult{
		MapTimeCPP:            withCPP,
		MapTimeDefault:        withDefault,
		Speedup:               ratio(withDefault, withCPP),
		RemoteFractionCPP:     remCPP,
		RemoteFractionDefault: remDef,
	}
	cfg.printf("Section 6.4: co-location (CIF, url+metadata projection)\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "placement\tmap time (s)\tremote bytes")
		fmt.Fprintf(w, "ColumnPlacementPolicy\t%.1f\t%.1f%%\n", res.MapTimeCPP, 100*res.RemoteFractionCPP)
		fmt.Fprintf(w, "default\t%.1f\t%.1f%%\n", res.MapTimeDefault, 100*res.RemoteFractionDefault)
	})
	cfg.printf("CPP speedup: %.1fx (paper: 5.1x)\n\n", res.Speedup)
	return res, nil
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
