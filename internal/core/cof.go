package core

import (
	"fmt"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Writer is the ColumnOutputFormat (COF) loader: it horizontally partitions
// the record stream into split-directories, writing each through a
// SplitWriter.
type Writer struct {
	fs      *hdfs.FileSystem
	dataset string
	schema  *serde.Schema
	opts    LoadOptions
	stats   *sim.TaskStats

	count   int64
	split   *SplitWriter // nil between split-directories
	written []WrittenSplit
	one     [1]*serde.GenericRecord // Append's round
}

// WrittenSplit is a split-directory a Writer has opened: its path and the
// records appended to it.
type WrittenSplit struct {
	Dir     string
	Records int64
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
	w := &Writer{fs: fs, dataset: dataset, schema: schema, opts: opts, stats: stats}
	return w, nil
}

// Append writes one record, rotating split-directories as bounds fill: a
// round of one.
func (w *Writer) Append(rec *serde.GenericRecord) error {
	w.one[0] = rec
	err := w.AppendRecords(w.one[:])
	w.one[0] = nil
	return err
}

// AppendRecords writes recs, cutting them into rounds (see SplitWriter) at
// rotation points: a SplitRecords bound rotates after a known count, so a
// round runs up to it; a SplitBytes bound is decided per record from the
// bytes written, so every round is a record. A record of another schema or
// with an unset field is refused before anything of the call is written —
// no split-directory is opened for it — and the records after it with it;
// those before it are written. The call keeps no reference to recs or their
// records once it returns.
func (w *Writer) AppendRecords(recs []*serde.GenericRecord) error {
	n, err := checkRound(w.schema, recs, true)
	for recs = recs[:n]; len(recs) > 0; {
		if w.split == nil {
			split, err := NewSplitWriter(w.fs, w.dataset+"/"+splitDirName(len(w.written)), w.schema, w.opts, w.stats)
			if err != nil {
				return err
			}
			w.split = split
			w.written = append(w.written, WrittenSplit{Dir: split.Dir()})
		}
		k := len(recs)
		if w.opts.SplitBytes > 0 {
			k = 1
		} else if room := w.opts.SplitRecords - w.split.Count(); room < int64(k) {
			k = int(room)
		}
		if err := w.split.round(recs[:k]); err != nil {
			return err
		}
		w.count += int64(k)
		w.written[len(w.written)-1].Records += int64(k)
		if w.splitFull() {
			if err := w.Close(); err != nil {
				return err
			}
		}
		recs = recs[k:]
	}
	return err
}

// Written returns the split-directories the writer has opened, in order,
// with the records each holds: record i of the load is record i - (the
// records before its directory) of it.
func (w *Writer) Written() []WrittenSplit { return w.written }

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
	conf := ScanDataset(dataset).Columns(inputCols...).Conf()
	for _, dir := range dirs {
		split := &Split{Dirs: []string{dir}, Columns: inputCols}
		if err := addColumnFile(fs, in, &conf, split, dir+"/"+name, colSchema, layout, compute, stats); err != nil {
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

// addColumnFile writes the new column's file for one split-directory. On
// any error it closes the split's reader and the file's writer and removes
// the partial file, so no stream window stays out and a retry can create
// the file afresh.
func addColumnFile(fs *hdfs.FileSystem, in *InputFormat, conf *mapred.JobConf, split *Split, path string, colSchema *serde.Schema, layout colfile.Options, compute func(rec serde.Record) (any, error), stats *sim.TaskStats) (err error) {
	rr, err := in.Open(fs, conf, split, hdfs.AnyNode, stats)
	if err != nil {
		return err
	}
	fw, err := fs.Create(path, hdfs.AnyNode)
	if err != nil {
		rr.Close()
		return err
	}
	// Deferred calls run last first: the reader is closed, and its error
	// counted, before the file is judged partial.
	defer func() {
		if err != nil {
			fw.Close()
			fs.Remove(path)
		}
	}()
	defer func() {
		if cerr := rr.Close(); err == nil {
			err = cerr
		}
	}()
	var cpu *sim.CPUStats
	if stats != nil {
		fw.SetStats(&stats.IO)
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
	if err := cw.Close(); err != nil {
		return err
	}
	return fw.Close()
}
