// Package bench regenerates every table and figure in the paper's
// evaluation (Section 6 and Appendix B). Each experiment:
//
//  1. generates a laptop-scale sample of the paper's dataset,
//  2. executes the real storage-format code paths (encode, write to the
//     simulated HDFS, scan/job with real decoding), collecting
//     sim.TaskStats counters,
//  3. linearly extrapolates the counters to the paper's dataset size, and
//  4. prices them with the calibrated cluster cost model.
//
// Absolute seconds come from the model; the reproduction target is the
// paper's shape — orderings, crossovers, and rough speedup factors — which
// emerge from measured bytes, seeks, and per-type decode work rather than
// from hardcoded ratios. See EXPERIMENTS.md for paper-vs-measured values.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Scale multiplies each experiment's default laptop-scale record
	// count. 1.0 gives defaults tuned for a few seconds per experiment;
	// tests use smaller values.
	Scale float64
	// Seed drives all generators and placement decisions.
	Seed int64
	// Out receives the formatted result tables (nil: stdout suppressed).
	Out io.Writer
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 2011} }

func (c Config) records(base int64) int64 {
	n := int64(float64(base) * c.Scale)
	if n < 64 {
		n = 64
	}
	return n
}

func (c Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

func (c Config) table(write func(w *tabwriter.Writer)) {
	if c.Out == nil {
		return
	}
	w := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	write(w)
	w.Flush()
}

// newFS builds a simulated HDFS for an experiment.
func newFS(cfg sim.ClusterConfig, seed int64, cpp bool) *hdfs.FileSystem {
	fs := hdfs.New(cfg, seed)
	if cpp {
		fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	}
	return fs
}

// noop is a map function that discards its records: the scan's own
// counters are the measurement.
var noop = mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil })

// scanSplits opens every split of the input and drains it on node 0 of a
// single-node cluster, returning aggregated stats. It is the scan harness
// used by the microbenchmarks (Sections 6.2, B.2, B.5). It stays a serial
// loop beside the engine for two reasons: its visit callbacks add into the
// caller's plain locals, and it plans with Splits, never PlannedSplits, so
// the experiments that measure the group tier see no scheduler-tier elision
// (ingest's time-clustered predicate would otherwise elide splits).
func scanSplits(fs *hdfs.FileSystem, in mapred.InputFormat, conf *mapred.JobConf, visit func(rec serde.Record) error) (sim.TaskStats, int64, error) {
	var total sim.TaskStats
	splits, err := in.Splits(fs, conf)
	if err != nil {
		return total, 0, err
	}
	var records int64
	for _, sp := range splits {
		var st sim.TaskStats
		rr, err := in.Open(fs, conf, sp, 0, &st)
		if err != nil {
			return total, 0, err
		}
		for {
			_, v, ok, err := rr.Next()
			if err != nil {
				rr.Close()
				return total, 0, err
			}
			if !ok {
				break
			}
			records++
			st.RecordsProcessed++
			if visit != nil {
				if err := visit(v.(serde.Record)); err != nil {
					rr.Close()
					return total, 0, err
				}
			}
		}
		if err := rr.Close(); err != nil {
			return total, 0, err
		}
		total.Add(st)
	}
	return total, records, nil
}

// ratio guards division display.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gb formats bytes as gigabytes.
func gb(b int64) float64 { return float64(b) / float64(sim.GB) }

// mbps formats a bytes-per-second rate as MB/s.
func mbps(bytesPerSec float64) float64 { return bytesPerSec / float64(sim.MB) }
