package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/formats/txt"
	"colmr/internal/mapred"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Figure7Target is the paper's dataset size for the Section 6.2
// microbenchmark: 57 GB in SEQ format.
const Figure7Target = 57 * sim.GB

// Fig7Projections are the scan projections of Figure 7.
var Fig7Projections = []struct {
	Name    string
	Columns []string
}{
	{"AllColumns", nil},
	{"1 Integer", []string{"int0"}},
	{"1 String", []string{"str0"}},
	{"1 Map", []string{"map0"}},
	{"1 String+1 Map", []string{"str0", "map0"}},
}

// Figure7Cell is one bar of Figure 7.
type Figure7Cell struct {
	Format     string
	Projection string
	Seconds    float64
	ChargedGB  float64
}

// Figure7Result holds the microbenchmark matrix.
type Figure7Result struct {
	Cells []Figure7Cell
	// SeqBytes is the measured laptop-scale SEQ size; ScaleFactor
	// extrapolates it to Figure7Target.
	SeqBytes    int64
	ScaleFactor float64
}

// Get returns the cell for a format/projection pair.
func (r *Figure7Result) Get(format, projection string) Figure7Cell {
	for _, c := range r.Cells {
		if c.Format == format && c.Projection == projection {
			return c
		}
	}
	return Figure7Cell{}
}

// Figure7 reproduces the Section 6.2 microbenchmark: single-node scan times
// for TXT, SEQ, CIF, and RCFile (compressed and uncompressed) across five
// projections of the synthetic dataset.
func Figure7(cfg Config) (*Figure7Result, error) {
	n := cfg.records(400_000)
	gen := workload.NewSynthetic(cfg.Seed)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	seqBytes, err := writeSEQ(fs, "/f7/data.seq", gen, n, seq.Options{Mode: seq.ModeNone}, nil)
	if err != nil {
		return nil, err
	}
	if _, err := writeTXT(fs, "/f7/data.txt", gen, n); err != nil {
		return nil, err
	}
	if _, err := writeRC(fs, "/f7/data.rc", gen, n, rcfile.Options{RowGroupBytes: 4 << 20}, nil); err != nil {
		return nil, err
	}
	if _, err := writeRC(fs, "/f7/datac.rc", gen, n, rcfile.Options{Codec: "zlib", RowGroupBytes: 4 << 20}, nil); err != nil {
		return nil, err
	}
	if _, err := writeCIF(fs, "/f7/cif", gen, n, core.LoadOptions{SplitRecords: n/2 + 1}, nil); err != nil {
		return nil, err
	}

	k := float64(Figure7Target) / float64(seqBytes)
	res := &Figure7Result{SeqBytes: seqBytes, ScaleFactor: k}

	scan := func(format string, in mapred.InputFormat, conf *mapred.JobConf, projection string) error {
		st, _, err := scanSplits(fs, in, conf, 0, nil)
		if err != nil {
			return fmt.Errorf("%s %s: %w", format, projection, err)
		}
		st.Scale(k)
		res.Cells = append(res.Cells, Figure7Cell{
			Format:     format,
			Projection: projection,
			Seconds:    model.ScanSeconds(st),
			ChargedGB:  gb(st.IO.TotalChargedBytes()),
		})
		return nil
	}

	// TXT and SEQ read and deserialize everything no matter the
	// projection, so one scan covers all projections (the paper reports a
	// single value for each).
	if err := scan("TXT", &txt.InputFormat{Schema: gen.Schema()}, &mapred.JobConf{InputPaths: []string{"/f7/data.txt"}}, "AllColumns"); err != nil {
		return nil, err
	}
	if err := scan("SEQ", &seq.InputFormat{}, &mapred.JobConf{InputPaths: []string{"/f7/data.seq"}}, "AllColumns"); err != nil {
		return nil, err
	}

	for _, proj := range Fig7Projections {
		conf := core.ScanDataset("/f7/cif").Columns(proj.Columns...).Conf()
		if err := scan("CIF", &core.InputFormat{}, &conf, proj.Name); err != nil {
			return nil, err
		}

		for _, rc := range []struct{ name, path string }{
			{"RCFile", "/f7/data.rc"},
			{"RCFile-comp", "/f7/datac.rc"},
		} {
			conf := core.ScanDataset(rc.path).Columns(proj.Columns...).Conf()
			if err := scan(rc.name, &rcfile.InputFormat{}, &conf, proj.Name); err != nil {
				return nil, err
			}
		}
	}

	cfg.printf("Figure 7: scan time (sec, modeled single node, %0.0f GB dataset)\n", float64(Figure7Target)/float64(sim.GB))
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "projection\tTXT\tSEQ\tCIF\tRCFile\tRCFile-comp")
		for _, p := range Fig7Projections {
			txtS, seqS := res.Get("TXT", "AllColumns").Seconds, res.Get("SEQ", "AllColumns").Seconds
			fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n", p.Name,
				txtS, seqS,
				res.Get("CIF", p.Name).Seconds,
				res.Get("RCFile", p.Name).Seconds,
				res.Get("RCFile-comp", p.Name).Seconds)
		}
	})
	cfg.printf("\n")
	return res, nil
}
