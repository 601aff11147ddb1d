package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/mapred"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Fig11Widths are the record widths (column counts) of Appendix B.5.
var Fig11Widths = []int{20, 40, 80}

// Fig11Target is the appendix's dataset size (~60 GB per width).
const Fig11Target = 60 * sim.GB

// Figure11Point is one bar of Figure 11: effective read bandwidth for a
// format/projection pair at a record width.
type Figure11Point struct {
	Series  string // SEQ, CIF_1, CIF_10%, CIF_all, RCFile_1, RCFile_10%, RCFile_all
	Columns int
	MBps    float64
}

// Figure11Result holds all series.
type Figure11Result struct {
	Points []Figure11Point
}

// Get returns the point for a series and width.
func (r *Figure11Result) Get(series string, columns int) Figure11Point {
	for _, p := range r.Points {
		if p.Series == series && p.Columns == columns {
			return p
		}
	}
	return Figure11Point{}
}

// Figure11 reproduces Appendix B.5: read bandwidth as the number of
// columns per record grows (20/40/80), for SEQ, CIF, and RCFile with 16 MB
// row groups, projecting 1 column, 10% of columns, or all columns.
// Bandwidth is the projected columns' logical bytes divided by scan time,
// so formats that must fetch unwanted bytes to deliver one column (RCFile)
// degrade as records widen, while CIF stays flat.
func Figure11(cfg Config) (*Figure11Result, error) {
	baseRecords := cfg.records(100_000)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	res := &Figure11Result{}

	for _, cols := range Fig11Widths {
		// Keep total dataset bytes comparable across widths, like the
		// appendix's ~60 GB datasets: fewer records for wider rows.
		n := baseRecords * 20 / int64(cols)
		gen := workload.NewWide(cfg.Seed, cols)
		fs := newFS(cluster, cfg.Seed, true)

		seqBytes, err := writeSEQ(fs, "/f11/data.seq", gen, n, seqOptsNone(), nil)
		if err != nil {
			return nil, err
		}
		if _, err := writeRC(fs, "/f11/data.rc", gen, n, rcfile.Options{RowGroupBytes: 16 << 20}, nil); err != nil {
			return nil, err
		}
		if _, err := writeCIF(fs, "/f11/cif", gen, n, core.LoadOptions{SplitRecords: n/2 + 1}, nil); err != nil {
			return nil, err
		}
		k := float64(Fig11Target) / float64(seqBytes)

		// Projections: 1 column, 10% of columns, all.
		names := gen.Schema().FieldNames()
		projections := []struct {
			label string
			cols  []string
		}{
			{"1", names[:1]},
			{"10%", names[:cols/10]},
			{"all", nil},
		}

		// Logical bytes per column (uniform 30-char strings): measured
		// from the CIF column files.
		colBytes := fs.TreeSize("/f11/cif") / int64(cols)

		record := func(series string, st sim.TaskStats, projectedCols int) {
			st.Scale(k)
			seconds := model.ScanSeconds(st)
			projected := float64(colBytes*int64(projectedCols)) * k
			res.Points = append(res.Points, Figure11Point{
				Series:  series,
				Columns: cols,
				MBps:    mbps(projected / seconds),
			})
		}

		// SEQ reads everything regardless of projection: one series.
		st, _, err := scanSplits(fs, &seq.InputFormat{}, &mapred.JobConf{InputPaths: []string{"/f11/data.seq"}}, nil)
		if err != nil {
			return nil, err
		}
		record("SEQ", st, cols)

		for _, proj := range projections {
			nProj := cols
			if proj.cols != nil {
				nProj = len(proj.cols)
			}
			conf := core.ScanDataset("/f11/cif").Columns(proj.cols...).Conf()
			st, _, err := scanSplits(fs, &core.InputFormat{}, &conf, nil)
			if err != nil {
				return nil, err
			}
			record("CIF_"+proj.label, st, nProj)

			rconf := core.ScanDataset("/f11/data.rc").Columns(proj.cols...).Conf()
			st, _, err = scanSplits(fs, &rcfile.InputFormat{}, &rconf, nil)
			if err != nil {
				return nil, err
			}
			record("RCFile_"+proj.label, st, nProj)
		}
	}

	cfg.printf("Figure 11: read bandwidth (MB/s of projected data) vs record width\n")
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "columns\tSEQ\tCIF_1\tCIF_10%\tCIF_all\tRCFile_1\tRCFile_10%\tRCFile_all")
		for _, cols := range Fig11Widths {
			fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n", cols,
				res.Get("SEQ", cols).MBps,
				res.Get("CIF_1", cols).MBps,
				res.Get("CIF_10%", cols).MBps,
				res.Get("CIF_all", cols).MBps,
				res.Get("RCFile_1", cols).MBps,
				res.Get("RCFile_10%", cols).MBps,
				res.Get("RCFile_all", cols).MBps)
		}
	})
	cfg.printf("\n")
	return res, nil
}
