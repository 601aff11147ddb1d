package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serve"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Serve sweeps the scan server's sharing window against a continuous
// arrival stream: arrival rate x predicate overlap x window size, over the
// clustered dataset the shared-scan sweep uses. Queries arrive on a fixed
// cadence from three rotating tenants under a ManualClock, so each cell is
// a deterministic discrete-event replay; the server merges whatever lands
// inside one window into a shared batch and the cell reports what that
// merging bought (charged bytes vs the window-0 run) and what it cost
// (modeled wait and end-to-end latency percentiles).
//
// Window 0 is the control: every query seals into a batch of one, and the
// sweep fails if its charged bytes differ at all from running the same
// queries sequentially solo — the no-batching identity that anchors the
// other cells' ratios.

// ServeWindows are the swept sharing windows, in modeled seconds.
var ServeWindows = []float64{0, 0.02, 0.05, 0.1}

// ServeRates are the swept arrival rates, in queries per modeled second.
var ServeRates = []float64{50, 200}

// serveQueries is the number of queries per cell; serveSplits the number of
// split-directories in the swept dataset. They are equal so the disjoint
// mix can give every query its own split-aligned tile — genuinely pairwise
// disjoint, the control where a window must save nothing.
const (
	serveQueries = 16
	serveSplits  = 16
)

// ServeCell is one (rate, overlap, window) run.
type ServeCell struct {
	Rate    float64
	Overlap bool
	Window  float64
	// Batches is how many batches served the stream; Shared of them held
	// more than one query.
	Batches int64
	Shared  int64
	// ChargedBytes is the server's total charged I/O; Ratio is the window-0
	// cell's charged bytes over this one's (>1 means the window saved I/O).
	ChargedBytes int64
	Ratio        float64
	BytesSaved   int64
	// Wait and Latency are the modeled arrival-to-start and
	// arrival-to-finish distributions across the stream's queries.
	Wait    sim.LatencySummary
	Latency sim.LatencySummary
}

// ServeResult holds the sweep.
type ServeResult struct {
	Cells   []ServeCell
	Records int64
}

// Get returns the cell for a (rate, overlap, window) triple.
func (r *ServeResult) Get(rate float64, overlap bool, window float64) ServeCell {
	for _, c := range r.Cells {
		if c.Rate == rate && c.Overlap == overlap && c.Window == window {
			return c
		}
	}
	return ServeCell{}
}

// servePred builds query j's predicate: nested prefixes of the clustered
// int0 domain when overlapping (the shared-scan sweep's regime), tiles of
// it when disjoint.
func servePred(j int, overlap bool) scan.Predicate {
	if overlap {
		return scan.Le("int0", int64(2500+100*(j%8)))
	}
	width := int64(10000 / serveQueries)
	lo := int64(j) * width
	return scan.And(scan.Gt("int0", lo), scan.Le("int0", lo+width))
}

// Serve runs the sweep.
func Serve(cfg Config) (*ServeResult, error) {
	n := cfg.records(40_000)
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
		SplitRecords: (n + serveSplits - 1) / serveSplits,
	}
	dir := "/serve/cif"
	if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
		return nil, fmt.Errorf("loading: %w", err)
	}

	// The sequential-solo control, once per overlap mode: the byte account
	// every window-0 cell must reproduce exactly.
	soloCharged := map[bool]int64{}
	for _, overlap := range []bool{true, false} {
		for j := 0; j < serveQueries; j++ {
			r, err := mapred.Run(fs, str0Job(dir, servePred(j, overlap)))
			if err != nil {
				return nil, fmt.Errorf("solo overlap=%v query %d: %w", overlap, j, err)
			}
			soloCharged[overlap] += r.Total.IO.TotalChargedBytes()
		}
	}

	res := &ServeResult{Records: n}
	for _, rate := range ServeRates {
		for _, overlap := range []bool{true, false} {
			for _, window := range ServeWindows {
				clock := &serve.ManualClock{}
				srv := serve.New(fs, serve.Options{
					Window:     window,
					MaxBatches: 2,
					Clock:      clock,
					Model:      &model,
					// Quota and cache off: membership must depend only on
					// the arrival schedule, and the control comparison must
					// not be perturbed by cross-batch caching.
				})
				tenants := []string{"ads", "search", "mail"}
				tickets := make([]*serve.Ticket, serveQueries)
				for j := 0; j < serveQueries; j++ {
					clock.Set(float64(j) / rate)
					tk, err := srv.Enqueue(tenants[j%len(tenants)], str0Job(dir, servePred(j, overlap)))
					if err != nil {
						return nil, fmt.Errorf("enqueue rate=%g overlap=%v window=%g query %d: %w",
							rate, overlap, window, j, err)
					}
					tickets[j] = tk
				}
				srv.Drain()
				for j, tk := range tickets {
					if _, err := tk.Wait(); err != nil {
						return nil, fmt.Errorf("query %d rate=%g overlap=%v window=%g: %w",
							j, rate, overlap, window, err)
					}
				}
				st := srv.Stats()
				if window == 0 && st.ChargedBytes != soloCharged[overlap] {
					return nil, fmt.Errorf("window 0 (rate=%g overlap=%v) charged %d bytes, sequential solo runs %d — the no-batching identity broke",
						rate, overlap, st.ChargedBytes, soloCharged[overlap])
				}
				res.Cells = append(res.Cells, ServeCell{
					Rate:         rate,
					Overlap:      overlap,
					Window:       window,
					Batches:      st.Batches,
					Shared:       st.SharedBatches,
					ChargedBytes: st.ChargedBytes,
					BytesSaved:   st.BytesSaved,
					Wait:         st.Wait,
					Latency:      st.Latency,
				})
			}
		}
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		base := res.Get(c.Rate, c.Overlap, 0)
		c.Ratio = ratio(float64(base.ChargedBytes), float64(c.ChargedBytes))
	}

	cfg.printf("Scan server sweep: sharing window vs continuous arrivals (%d records, %d split-directories, %d queries/cell, 3 tenants, clustered int0, project str0)\n",
		n, serveSplits, serveQueries)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "rate/s\tmix\twindow ms\tbatches\tshared\tcharged MB\tvs w=0\tsaved MB\twait p50/p99 ms\tlatency p50/p99 ms")
		for _, c := range res.Cells {
			mix := "overlap"
			if !c.Overlap {
				mix = "disjoint"
			}
			fmt.Fprintf(w, "%.0f\t%s\t%.0f\t%d\t%d\t%.2f\t%.2fx\t%.2f\t%.1f/%.1f\t%.1f/%.1f\n",
				c.Rate, mix, c.Window*1e3, c.Batches, c.Shared,
				float64(c.ChargedBytes)/(1<<20), c.Ratio,
				float64(c.BytesSaved)/(1<<20),
				c.Wait.P50*1e3, c.Wait.P99*1e3,
				c.Latency.P50*1e3, c.Latency.P99*1e3)
		}
	})
	cfg.printf("\n")
	return res, nil
}
