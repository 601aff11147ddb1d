package bench

import (
	"fmt"
	"hash/fnv"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Fig10Selectivities are the predicate selectivities swept in Appendix B.4.
var Fig10Selectivities = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// Figure10Point is one point of the selectivity sweep.
type Figure10Point struct {
	Format      string // "CIF" or "CIF-SL"
	Selectivity float64
	Seconds     float64
}

// Figure10Result holds both series.
type Figure10Result struct {
	Points      []Figure10Point
	ScaleFactor float64
}

// Get returns the point for a format and selectivity.
func (r *Figure10Result) Get(format string, sel float64) Figure10Point {
	for _, p := range r.Points {
		if p.Format == format && p.Selectivity == sel {
			return p
		}
	}
	return Figure10Point{}
}

// selMatch implements a tunable predicate over the synthetic string
// column: a record matches when the hash of str0 falls below the
// selectivity threshold. It needs no workload changes and is deterministic.
func selMatch(s string, sel float64) bool {
	h := fnv.New32a()
	h.Write([]byte(s))
	return float64(h.Sum32()%10000) < sel*10000
}

// Figure10 reproduces Appendix B.4: the benefit of skip lists and lazy
// deserialization as predicate selectivity varies, on the Section 6.2
// single-node setting and dataset. The job aggregates the map-typed
// column's values for records whose string column matches. The CIF arm is
// eager (its line is flat); CIF-SL is lazy over a skip list, so it wins at
// low selectivity and converges to CIF at 100%.
func Figure10(cfg Config) (*Figure10Result, error) {
	n := cfg.records(120_000)
	gen := workload.NewSynthetic(cfg.Seed)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)

	res := &Figure10Result{}
	// The CIF arm is eager (the paper's default construction, which is why
	// its Figure 10 line is flat); CIF-SL is lazy over a skip list.
	arms := []struct {
		name   string
		layout colfile.Options
		lazy   bool
	}{
		{"CIF", colfile.Options{Layout: colfile.Plain}, false},
		{"CIF-SL", colfile.Options{Layout: colfile.SkipList}, true},
	}
	for _, arm := range arms {
		fs := newFS(cluster, cfg.Seed, true)
		opts := core.LoadOptions{
			SplitRecords: n/16 + 1,
			PerColumn:    map[string]colfile.Options{"map0": arm.layout},
		}
		if _, err := writeCIF(fs, "/f10/cif", gen, n, opts, nil); err != nil {
			return nil, err
		}
		if res.ScaleFactor == 0 {
			res.ScaleFactor = float64(Figure7Target) / float64(fs.TreeSize("/f10/cif"))
		}

		for _, sel := range Fig10Selectivities {
			sel := sel
			conf := core.ScanDataset("/f10/cif").Columns("str0", "map0").Lazy(arm.lazy).Conf()
			var sum int64
			total, _, err := scanSplits(fs, &core.InputFormat{}, &conf, 0, func(rec serde.Record) error {
				s, err := rec.Get("str0")
				if err != nil {
					return err
				}
				if !selMatch(s.(string), sel) {
					return nil
				}
				m, err := rec.Get("map0")
				if err != nil {
					return err
				}
				for _, v := range m.(map[string]any) {
					sum += int64(v.(int32))
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s sel=%.1f: %w", arm.name, sel, err)
			}
			_ = sum
			total.Scale(res.ScaleFactor)
			res.Points = append(res.Points, Figure10Point{
				Format:      arm.name,
				Selectivity: sel,
				Seconds:     model.ScanSeconds(total),
			})
		}
	}

	cfg.printf("Figure 10: lazy materialization and skip lists vs selectivity (single-node scan sec)\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "selectivity\tCIF\tCIF-SL")
		for _, sel := range Fig10Selectivities {
			fmt.Fprintf(w, "%.0f%%\t%.0f\t%.0f\n", sel*100,
				res.Get("CIF", sel).Seconds, res.Get("CIF-SL", sel).Seconds)
		}
	})
	cfg.printf("\n")
	return res, nil
}
