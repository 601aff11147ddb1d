package core

import (
	"fmt"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// SplitWriter writes one split-directory: the schema file, then one column
// file per top-level field (Figure 4), each through the layout the load
// options give its column. It is the single place a record is taken apart
// into column appends — the bulk loader rotates through a sequence of them,
// the streaming ingester flushes each fresh partition through one.
type SplitWriter struct {
	dir    string
	schema *serde.Schema
	files  []*hdfs.FileWriter
	cols   []colfile.Writer
	count  int64
}

// NewSplitWriter creates dir's schema file and opens its column files, in
// schema order. opts supplies the layouts and the writer node; its split
// bounds are the caller's business.
func NewSplitWriter(fs *hdfs.FileSystem, dir string, schema *serde.Schema, opts LoadOptions, stats *sim.TaskStats) (*SplitWriter, error) {
	var ioStats *sim.IOStats
	var cpu *sim.CPUStats
	if stats != nil {
		ioStats, cpu = &stats.IO, &stats.CPU
	}
	schemaWriter, err := fs.Create(dir+"/"+SchemaFile, opts.WriterNode)
	if err != nil {
		return nil, err
	}
	schemaWriter.SetStats(ioStats)
	if _, err := schemaWriter.Write([]byte(schema.String())); err != nil {
		return nil, err
	}
	if err := schemaWriter.Close(); err != nil {
		return nil, err
	}
	w := &SplitWriter{dir: dir, schema: schema,
		files: make([]*hdfs.FileWriter, 0, len(schema.Fields)),
		cols:  make([]colfile.Writer, 0, len(schema.Fields))}
	for _, f := range schema.Fields {
		fw, err := fs.Create(dir+"/"+f.Name, opts.WriterNode)
		if err != nil {
			return nil, err
		}
		fw.SetStats(ioStats)
		cw, err := colfile.NewWriter(fw, f.Type, opts.layoutFor(f.Name), cpu)
		if err != nil {
			return nil, err
		}
		w.files = append(w.files, fw)
		w.cols = append(w.cols, cw)
	}
	return w, nil
}

// Append writes one record of the split's schema (the caller has checked
// that it is) as one value per column file.
func (w *SplitWriter) Append(rec *serde.GenericRecord) error {
	for i, cw := range w.cols {
		v := rec.GetAt(i)
		if v == nil {
			return fmt.Errorf("core: field %q is unset", w.schema.Fields[i].Name)
		}
		if err := cw.Append(v); err != nil {
			return fmt.Errorf("core: column %q: %w", w.schema.Fields[i].Name, err)
		}
	}
	w.count++
	return nil
}

// Dir returns the split-directory's path.
func (w *SplitWriter) Dir() string { return w.dir }

// Count returns the number of records appended.
func (w *SplitWriter) Count() int64 { return w.count }

// Bytes returns the bytes the column files hold so far.
func (w *SplitWriter) Bytes() int64 {
	var total int64
	for _, f := range w.files {
		total += f.Size()
	}
	return total
}

// Close finalizes every column file.
func (w *SplitWriter) Close() error {
	for i, cw := range w.cols {
		if err := cw.Close(); err != nil {
			return err
		}
		if err := w.files[i].Close(); err != nil {
			return err
		}
	}
	return nil
}

// Writer is the ColumnOutputFormat (COF) loader: it horizontally partitions
// the record stream into split-directories, writing each through a
// SplitWriter.
type Writer struct {
	fs      *hdfs.FileSystem
	dataset string
	schema  *serde.Schema
	opts    LoadOptions
	stats   *sim.TaskStats

	splitIdx int
	count    int64
	split    *SplitWriter // nil between split-directories
}

// NewWriter starts a COF load into the dataset directory, which must not
// already contain split-directories.
func NewWriter(fs *hdfs.FileSystem, dataset string, schema *serde.Schema, opts LoadOptions, stats *sim.TaskStats) (*Writer, error) {
	if err := opts.Validate(schema); err != nil {
		return nil, err
	}
	if opts.SplitBytes == 0 && opts.SplitRecords == 0 {
		opts.SplitBytes = int64(len(schema.Fields)) * fs.Config().BlockSize
	}
	fs.MkdirAll(dataset)
	w := &Writer{fs: fs, dataset: dataset, schema: schema, opts: opts, stats: stats, splitIdx: -1}
	return w, nil
}

// Append writes one record, rotating split-directories as bounds fill.
func (w *Writer) Append(rec *serde.GenericRecord) error {
	if w.split == nil {
		w.splitIdx++
		var err error
		w.split, err = NewSplitWriter(w.fs, w.dataset+"/"+splitDirName(w.splitIdx), w.schema, w.opts, w.stats)
		if err != nil {
			return err
		}
	}
	if !rec.Schema().Equal(w.schema) {
		return fmt.Errorf("core: record schema does not match dataset schema")
	}
	if err := w.split.Append(rec); err != nil {
		return err
	}
	w.count++
	if w.splitFull() {
		return w.Close()
	}
	return nil
}

// Tell reports where the next Append will land: the split-directory path
// and the record's ordinal within it. Callers that must address written
// records later (e.g. ingest compaction rebuilding its key index) call
// Tell before each Append.
func (w *Writer) Tell() (string, int64) {
	if w.split == nil {
		// Rotation (or first write) pending: the next Append opens a fresh
		// split-directory.
		return w.dataset + "/" + splitDirName(w.splitIdx+1), 0
	}
	return w.split.Dir(), w.split.Count()
}

func (w *Writer) splitFull() bool {
	if w.opts.SplitRecords > 0 && w.split.Count() >= w.opts.SplitRecords {
		return true
	}
	return w.opts.SplitBytes > 0 && w.split.Bytes() >= w.opts.SplitBytes
}

// Count returns the number of records appended.
func (w *Writer) Count() int64 { return w.count }

// Close finalizes the last split-directory.
func (w *Writer) Close() error {
	if w.split == nil {
		return nil
	}
	split := w.split
	w.split = nil
	return split.Close()
}

// Load converts a dataset readable by any InputFormat into a CIF dataset —
// the paper's parallel loader (Section 4.2; load costs are Table 2's
// experiment). It returns the number of records loaded.
func Load(fs *hdfs.FileSystem, in mapred.InputFormat, conf *mapred.JobConf, schema *serde.Schema, dest string, opts LoadOptions, stats *sim.TaskStats) (int64, error) {
	w, err := NewWriter(fs, dest, schema, opts, stats)
	if err != nil {
		return 0, err
	}
	splits, err := in.Splits(fs, conf)
	if err != nil {
		return 0, err
	}
	for _, sp := range splits {
		rr, err := in.Open(fs, conf, sp, opts.WriterNode, stats)
		if err != nil {
			return 0, err
		}
		for {
			_, v, ok, err := rr.Next()
			if err != nil {
				rr.Close()
				return 0, err
			}
			if !ok {
				break
			}
			rec, ok := v.(*serde.GenericRecord)
			if !ok {
				rr.Close()
				return 0, fmt.Errorf("core: load: input produced %T, want a record", v)
			}
			if err := w.Append(rec); err != nil {
				rr.Close()
				return 0, err
			}
		}
		if err := rr.Close(); err != nil {
			return 0, err
		}
	}
	return w.Count(), w.Close()
}

// AddColumn appends a derived column to an existing CIF dataset — the
// schema-evolution operation Section 4.3 highlights as cheap for CIF
// (adding one file per split-directory) and prohibitively expensive for
// RCFile (rewriting every block). compute receives each record projected
// onto inputCols and returns the new column's value.
func AddColumn(fs *hdfs.FileSystem, dataset, name string, colSchema *serde.Schema, layout colfile.Options, inputCols []string, compute func(rec serde.Record) (any, error), stats *sim.TaskStats) error {
	schema, err := ReadSchema(fs, dataset)
	if err != nil {
		return err
	}
	if schema.FieldIndex(name) >= 0 {
		return fmt.Errorf("core: dataset already has a column %q", name)
	}
	newSchema := serde.RecordOf(schema.Name, append(append([]serde.Field{}, schema.Fields...), serde.Field{Name: name, Type: colSchema})...)
	if err := newSchema.Validate(); err != nil {
		return err
	}

	dirs, err := listSplitDirs(fs, dataset)
	if err != nil {
		return err
	}
	in := &InputFormat{}
	conf := &mapred.JobConf{InputPaths: []string{dataset}}
	if len(inputCols) > 0 {
		SetColumns(conf, inputCols...)
	}
	for _, dir := range dirs {
		split := &Split{Dirs: []string{dir}, Columns: inputCols}
		rr, err := in.Open(fs, conf, split, hdfs.AnyNode, stats)
		if err != nil {
			return err
		}
		fw, err := fs.Create(dir+"/"+name, hdfs.AnyNode)
		if err != nil {
			return err
		}
		if stats != nil {
			fw.SetStats(&stats.IO)
		}
		var cpu *sim.CPUStats
		if stats != nil {
			cpu = &stats.CPU
		}
		cw, err := colfile.NewWriter(fw, colSchema, layout, cpu)
		if err != nil {
			return err
		}
		for {
			_, v, ok, err := rr.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			nv, err := compute(v.(serde.Record))
			if err != nil {
				return err
			}
			if err := cw.Append(nv); err != nil {
				return err
			}
		}
		if err := rr.Close(); err != nil {
			return err
		}
		if err := cw.Close(); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		// Refresh the split's schema file.
		if err := fs.Remove(dir + "/" + SchemaFile); err != nil {
			return err
		}
		if err := fs.WriteFile(dir+"/"+SchemaFile, []byte(newSchema.String()), hdfs.AnyNode); err != nil {
			return err
		}
	}
	return nil
}
