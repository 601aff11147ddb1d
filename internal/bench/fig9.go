package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Fig9RowGroups are the RCFile row-group sizes swept in Appendix B.2.
var Fig9RowGroups = []int{1 << 20, 4 << 20, 16 << 20}

// Figure9Cell is one bar of Figure 9.
type Figure9Cell struct {
	Format     string // "CIF", "1M RCFile", "4M RCFile", "16M RCFile"
	Projection string
	Seconds    float64
	ChargedGB  float64
}

// Figure9Result holds the row-group tuning matrix.
type Figure9Result struct {
	Cells       []Figure9Cell
	ScaleFactor float64
}

// Get returns the cell for a format/projection pair.
func (r *Figure9Result) Get(format, projection string) Figure9Cell {
	for _, c := range r.Cells {
		if c.Format == format && c.Projection == projection {
			return c
		}
	}
	return Figure9Cell{}
}

// Figure9 reproduces Appendix B.2: RCFile row-group size tuning (1, 4,
// 16 MB) against CIF on the synthetic dataset's scan projections. Larger
// row groups eliminate more I/O for projected scans, but never approach
// CIF (the paper: 16.5/8.5/4.5 GB read vs CIF's 415 MB for one integer).
func Figure9(cfg Config) (*Figure9Result, error) {
	n := cfg.records(400_000)
	gen := memo(workload.NewSynthetic(cfg.Seed), n)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	seqBytes, err := writeSEQ(fs, "/f9/ref.seq", gen, n, seqOptsNone(), nil)
	if err != nil {
		return nil, err
	}
	k := float64(Figure7Target) / float64(seqBytes)
	res := &Figure9Result{ScaleFactor: k}

	if _, err := writeCIF(fs, "/f9/cif", gen, n, core.LoadOptions{SplitRecords: n/2 + 1}, nil); err != nil {
		return nil, err
	}
	for _, rg := range Fig9RowGroups {
		path := fmt.Sprintf("/f9/rc%dm.rc", rg>>20)
		if _, err := writeRC(fs, path, gen, n, rcfile.Options{RowGroupBytes: rg}, nil); err != nil {
			return nil, err
		}
	}

	for _, proj := range Fig7Projections {
		conf := core.ScanDataset("/f9/cif").Columns(proj.Columns...).Conf()
		st, _, err := scanSplits(fs, &core.InputFormat{}, &conf, nil)
		if err != nil {
			return nil, err
		}
		st.Scale(k)
		res.Cells = append(res.Cells, Figure9Cell{
			Format: "CIF", Projection: proj.Name,
			Seconds: model.ScanSeconds(st), ChargedGB: gb(st.IO.TotalChargedBytes()),
		})

		for _, rg := range Fig9RowGroups {
			name := fmt.Sprintf("%dM RCFile", rg>>20)
			conf := core.ScanDataset(fmt.Sprintf("/f9/rc%dm.rc", rg>>20)).Columns(proj.Columns...).Conf()
			st, _, err := scanSplits(fs, &rcfile.InputFormat{}, &conf, nil)
			if err != nil {
				return nil, err
			}
			st.Scale(k)
			res.Cells = append(res.Cells, Figure9Cell{
				Format: name, Projection: proj.Name,
				Seconds: model.ScanSeconds(st), ChargedGB: gb(st.IO.TotalChargedBytes()),
			})
		}
	}

	cfg.printf("Figure 9: RCFile row-group tuning vs CIF (scan sec / GB read)\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "projection\tCIF\t16M RCFile\t4M RCFile\t1M RCFile")
		for _, p := range Fig7Projections {
			fmt.Fprintf(w, "%s\t%.0fs/%.1fGB\t%.0fs/%.1fGB\t%.0fs/%.1fGB\t%.0fs/%.1fGB\n", p.Name,
				res.Get("CIF", p.Name).Seconds, res.Get("CIF", p.Name).ChargedGB,
				res.Get("16M RCFile", p.Name).Seconds, res.Get("16M RCFile", p.Name).ChargedGB,
				res.Get("4M RCFile", p.Name).Seconds, res.Get("4M RCFile", p.Name).ChargedGB,
				res.Get("1M RCFile", p.Name).Seconds, res.Get("1M RCFile", p.Name).ChargedGB)
		}
	})
	cfg.printf("\n")
	return res, nil
}
