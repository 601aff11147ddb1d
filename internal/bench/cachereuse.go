package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// CacheReuse measures cross-batch scan caching: the same job resubmitted
// round after round to one long-lived mapred.Session, against the same
// stream of rounds run cold (every round a fresh mapred.Run). Two arms:
//
//	selective  a zone-map-friendly predicate over the clustered int0 domain
//	           — the steady "same dashboard query again" case caching is
//	           for;
//	full       an unfiltered projection scan, showing reuse survives at
//	           100% selectivity too.
//
// Both arms run through one session, in order. The selective arm's round 1
// warms an empty cache and costs exactly the cold round (misses charge
// normally, byte for byte); every later round serves its column regions
// from the session — CacheHits/BytesFromCache account the reuse and the
// round's charged bytes collapse toward zero. The full arm's first round
// then starts below cold: the str0 regions the selective rounds pinned are
// cross-query reuse, a different job hitting another job's hot columns.
// Output equality between modes is asserted per round; byte-identical
// accounting with caching disabled is the session property test's job.

// CacheReuseRoundsPerArm is the number of times each arm's job repeats.
const CacheReuseRoundsPerArm = 4

// cacheReuseSplits is the number of split-directories in the swept dataset.
const cacheReuseSplits = 16

// CacheReuseCell is one round of one arm.
type CacheReuseCell struct {
	Arm   string
	Round int
	// Cold and Warm are the round's measured costs without and with the
	// session cache.
	Cold ScanCost
	Warm ScanCost
	// CacheHits and BytesFromCache are the warm round's reuse counters.
	CacheHits      int64
	BytesFromCache int64
	// ChargedRatio is Cold.ChargedBytes / Warm.ChargedBytes (0 when the
	// warm round charged nothing).
	ChargedRatio float64
}

// CacheReuseResult holds the sweep.
type CacheReuseResult struct {
	Cells   []CacheReuseCell
	Records int64
	// CacheBytes is the session budget; CacheUsed the resident bytes after
	// the sweep.
	CacheBytes int64
	CacheUsed  int64
	// Ratio sums each arm's cold charged bytes over its warm charged bytes
	// — the headline "repeated job" saving.
	Ratio map[string]float64
}

// Get returns one arm's cell for a round (1-based).
func (r *CacheReuseResult) Get(arm string, round int) CacheReuseCell {
	for _, c := range r.Cells {
		if c.Arm == arm && c.Round == round {
			return c
		}
	}
	return CacheReuseCell{}
}

// CacheReuse runs the sweep.
func CacheReuse(cfg Config) (*CacheReuseResult, error) {
	n := cfg.records(100_000)
	syn := workload.NewSynthetic(cfg.Seed)
	idx := syn.Schema().FieldIndex("int0")
	if idx < 0 {
		return nil, fmt.Errorf("bench: synthetic schema has no int0 column")
	}
	gen := clusteredGen{syn, n, idx}
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	opts := core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList},
		SplitRecords: (n + cacheReuseSplits - 1) / cacheReuseSplits,
	}
	dir := "/cachereuse/cif"
	if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
		return nil, fmt.Errorf("loading: %w", err)
	}

	arms := []struct {
		name string
		pred scan.Predicate
	}{
		// A quarter of the clustered domain: elision drops 3/4 of the
		// splits, the surviving region repeats every round.
		{"selective", scan.Le("int0", int64(2500))},
		// Unfiltered: every byte of str0, every round.
		{"full", nil},
	}

	res := &CacheReuseResult{
		Records:    n,
		CacheBytes: 256 << 20,
		Ratio:      make(map[string]float64),
	}
	session := mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: res.CacheBytes})
	for _, arm := range arms {
		var coldCharged, warmCharged int64
		for round := 1; round <= CacheReuseRoundsPerArm; round++ {
			cold, err := mapred.Run(fs, str0Job(dir, arm.pred))
			if err != nil {
				return nil, fmt.Errorf("cold %s round %d: %w", arm.name, round, err)
			}
			br, err := session.RunBatch(str0Job(dir, arm.pred))
			if err != nil {
				return nil, fmt.Errorf("warm %s round %d: %w", arm.name, round, err)
			}
			warm := br.Results[0]
			if warm.Total.RecordsProcessed != cold.Total.RecordsProcessed {
				return nil, fmt.Errorf("%s round %d: warm matched %d records, cold %d",
					arm.name, round, warm.Total.RecordsProcessed, cold.Total.RecordsProcessed)
			}
			work := br.Work()
			cell := CacheReuseCell{
				Arm:            arm.name,
				Round:          round,
				Cold:           scanCost(cold.Total, model),
				Warm:           scanCost(warm.Total, model),
				CacheHits:      work.CacheHits,
				BytesFromCache: work.BytesFromCache,
			}
			cell.ChargedRatio = ratio(float64(cell.Cold.ChargedBytes), float64(cell.Warm.ChargedBytes))
			coldCharged += cell.Cold.ChargedBytes
			warmCharged += cell.Warm.ChargedBytes
			res.Cells = append(res.Cells, cell)
		}
		res.Ratio[arm.name] = ratio(float64(coldCharged), float64(warmCharged))
	}
	res.CacheUsed, _ = session.CacheUsage()

	cfg.printf("Cache reuse sweep: one session resubmitting a job %d rounds vs cold runs (%d records, %d split-directories, clustered int0, project str0, %d MB cache)\n",
		CacheReuseRoundsPerArm, n, cacheReuseSplits, res.CacheBytes>>20)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "arm\tround\tcold charged MB\twarm charged MB\tratio\tcache hits\tfrom cache MB\tcold modeled\twarm modeled")
		for _, c := range res.Cells {
			rat := fmt.Sprintf("%.1fx", c.ChargedRatio)
			if c.Warm.ChargedBytes == 0 && c.Cold.ChargedBytes > 0 {
				rat = "all cached"
			}
			fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%s\t%d\t%.2f\t%.3fs\t%.3fs\n",
				c.Arm, c.Round,
				float64(c.Cold.ChargedBytes)/(1<<20),
				float64(c.Warm.ChargedBytes)/(1<<20),
				rat,
				c.CacheHits,
				float64(c.BytesFromCache)/(1<<20),
				c.Cold.Seconds, c.Warm.Seconds)
		}
	})
	cfg.printf("aggregate charged-byte reduction: selective %.1fx, full %.1fx; cache resident %.2f MB\n\n",
		res.Ratio["selective"], res.Ratio["full"], float64(res.CacheUsed)/(1<<20))
	return res, nil
}
