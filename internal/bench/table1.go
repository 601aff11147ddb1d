package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Table1Target is the paper's crawl dataset size: a 6.4 TB subset,
// ~160 GB per node on the 40-node cluster.
const Table1Target = 6400 * int64(sim.GB)

// Table1Row is one storage-format row of Table 1.
type Table1Row struct {
	Layout     string
	DataReadGB float64
	MapTime    float64
	MapRatio   float64 // speedup vs SEQ-custom
	TotalTime  float64
	TotalRatio float64
}

// Table1Result holds all rows, in the paper's order.
type Table1Result struct {
	Rows        []Table1Row
	ScaleFactor float64
}

// Get returns the row for a layout.
func (r *Table1Result) Get(layout string) Table1Row {
	for _, row := range r.Rows {
		if row.Layout == layout {
			return row
		}
	}
	return Table1Row{}
}

// crawlJob builds the paper's example MapReduce job (Figure 1 / Section
// 6.3): find distinct content-types of pages whose URL contains
// "ibm.com/jp". The same mapper and reducer run against every storage
// format — the Record interface hides the materialization strategy.
func crawlJob(in mapred.InputFormat, conf mapred.JobConf) *mapred.Job {
	if conf.NumReducers == 0 {
		conf.NumReducers = 40 // one reducer per node, as in Section 6.1
	}
	return &mapred.Job{
		Conf:  conf,
		Input: in,
		Mapper: mapred.MapperFunc(func(key, value any, emit mapred.Emit) error {
			rec := value.(serde.Record)
			url, err := rec.Get("url")
			if err != nil {
				return err
			}
			if !strings.Contains(url.(string), workload.MatchPattern) {
				return nil
			}
			md, err := rec.Get("metadata")
			if err != nil {
				return err
			}
			ct, _ := md.(map[string]any)["content-type"].(string)
			return emit(ct, nil)
		}),
		Reducer: mapred.ReducerFunc(func(key any, values []any, emit mapred.Emit) error {
			return emit(key, nil)
		}),
		Output: mapred.NullOutput{},
	}
}

// Table1 reproduces Section 6.3: the crawl job over eleven storage-format
// variants on the modeled 40-node cluster.
func Table1(cfg Config) (*Table1Result, error) {
	n := cfg.records(8000)
	gen := memo(workload.NewCrawl(workload.CrawlOptions{Seed: cfg.Seed}), n)
	cluster := sim.DefaultCluster()
	model := sim.DefaultModelFor(cluster)

	res := &Table1Result{}
	var scale float64 // established by the first (SEQ-uncomp) variant

	runVariant := func(name string, build func(fs *hdfs.FileSystem) (mapred.InputFormat, mapred.JobConf, int64, error)) error {
		fs := newFS(cluster, cfg.Seed, strings.HasPrefix(name, "CIF"))
		in, conf, size, err := build(fs)
		if err != nil {
			return fmt.Errorf("%s: build: %w", name, err)
		}
		if name == "SEQ-uncomp" {
			scale = float64(Table1Target) / float64(size)
			res.ScaleFactor = scale
		}
		jr, err := mapred.Run(fs, crawlJob(in, conf))
		if err != nil {
			return fmt.Errorf("%s: run: %w", name, err)
		}
		total := jr.Total
		total.Scale(scale)
		res.Rows = append(res.Rows, Table1Row{
			Layout:     name,
			DataReadGB: gb(total.IO.TotalChargedBytes()),
			MapTime:    model.MapTime(total),
			TotalTime:  model.TotalTime(total),
		})
		return nil
	}

	// SEQ variants.
	seqVariants := []struct {
		name string
		opts seq.Options
	}{
		{"SEQ-uncomp", seq.Options{Mode: seq.ModeNone}},
		{"SEQ-record", seq.Options{Mode: seq.ModeRecord, Codec: "lzo"}},
		{"SEQ-block", seq.Options{Mode: seq.ModeBlock, Codec: "lzo"}},
		{"SEQ-custom", seq.Options{Mode: seq.ModeNone, FieldCodecs: map[string]string{"content": "lzo"}}},
	}
	for _, v := range seqVariants {
		v := v
		if err := runVariant(v.name, func(fs *hdfs.FileSystem) (mapred.InputFormat, mapred.JobConf, int64, error) {
			size, err := writeSEQ(fs, "/t1/data.seq", gen, n, v.opts, nil)
			return &seq.InputFormat{}, mapred.JobConf{InputPaths: []string{"/t1/data.seq"}}, size, err
		}); err != nil {
			return nil, err
		}
	}

	// RCFile variants.
	rcVariants := []struct {
		name string
		opts rcfile.Options
	}{
		{"RCFile", rcfile.Options{RowGroupBytes: 4 << 20}},
		{"RCFile-comp", rcfile.Options{Codec: "zlib", RowGroupBytes: 4 << 20}},
	}
	for _, v := range rcVariants {
		v := v
		if err := runVariant(v.name, func(fs *hdfs.FileSystem) (mapred.InputFormat, mapred.JobConf, int64, error) {
			size, err := writeRC(fs, "/t1/data.rc", gen, n, v.opts, nil)
			return &rcfile.InputFormat{}, core.ScanDataset("/t1/data.rc").Columns("url", "metadata").Conf(), size, err
		}); err != nil {
			return nil, err
		}
	}

	// CIF variants: the metadata column's layout varies (Section 6.3);
	// projection pushdown selects url + metadata for all of them.
	for _, v := range cifVariants() {
		v := v
		if err := runVariant(v.name, func(fs *hdfs.FileSystem) (mapred.InputFormat, mapred.JobConf, int64, error) {
			opts := core.LoadOptions{
				SplitRecords: n/16 + 1,
				PerColumn:    map[string]colfile.Options{"metadata": v.layout},
			}
			size, err := writeCIF(fs, "/t1/cif", gen, n, opts, nil)
			return &core.InputFormat{}, core.ScanDataset("/t1/cif").Columns("url", "metadata").Lazy(v.lazy).Conf(), size, err
		}); err != nil {
			return nil, err
		}
	}

	// Ratios relative to SEQ-custom, as in the paper.
	base := res.Get("SEQ-custom")
	for i := range res.Rows {
		res.Rows[i].MapRatio = ratio(base.MapTime, res.Rows[i].MapTime)
		res.Rows[i].TotalRatio = ratio(base.TotalTime, res.Rows[i].TotalTime)
	}

	cfg.printf("Table 1: crawl job over %.1f TB on the modeled 40-node cluster\n", float64(Table1Target)/float64(sim.TB))
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "layout\tdata read (GB)\tmap time (s)\tmap ratio\ttotal time (s)\ttotal ratio")
		for _, row := range res.Rows {
			fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1fx\t%.0f\t%.1fx\n",
				row.Layout, row.DataReadGB, row.MapTime, row.MapRatio, row.TotalTime, row.TotalRatio)
		}
	})
	cfg.printf("\n")
	return res, nil
}
