package bench

import (
	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/formats/rcfile"
	"colmr/internal/formats/seq"
	"colmr/internal/formats/txt"
	"colmr/internal/hdfs"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// generator is the common shape of the workload generators.
type generator interface {
	Schema() *serde.Schema
	Record(i int64) *serde.GenericRecord
}

// memoMaxRecords bounds the records a memo keeps: enough for the reduced
// scales the shape tests run at (17 039 records at most, AblationParallelism
// on one node), few enough that a full-scale run regenerates its records
// rather than holding the dataset in memory. At the bound a memo adds about
// 50 MB to a run's peak RSS for synthetic records and 650 MB for crawl
// pages (Table 1 at scale 2.5; 260 MB at scale 1).
const memoMaxRecords = 20_000

// memoGen hands out each of its generator's first len(recs) records once
// made, so an experiment that writes one dataset in several formats pays
// the generator once. Writers only read the records they are handed.
type memoGen struct {
	generator
	recs []*serde.GenericRecord
}

// memo returns gen, remembering its first n records when there are at most
// memoMaxRecords of them.
func memo(gen generator, n int64) generator {
	if n > memoMaxRecords {
		return gen
	}
	return &memoGen{generator: gen, recs: make([]*serde.GenericRecord, n)}
}

func (m *memoGen) Record(i int64) *serde.GenericRecord {
	if i >= int64(len(m.recs)) {
		return m.generator.Record(i)
	}
	if m.recs[i] == nil {
		m.recs[i] = m.generator.Record(i)
	}
	return m.recs[i]
}

// writeSEQ materializes n generated records as a SequenceFile and returns
// its size. Load-side stats may be nil.
func writeSEQ(fs *hdfs.FileSystem, path string, gen generator, n int64, opts seq.Options, stats *sim.TaskStats) (int64, error) {
	f, err := fs.Create(path, hdfs.AnyNode)
	if err != nil {
		return 0, err
	}
	if stats != nil {
		f.SetStats(&stats.IO)
	}
	var cpu *sim.CPUStats
	if stats != nil {
		cpu = &stats.CPU
	}
	w, err := seq.NewWriter(f, path, gen.Schema(), opts, cpu)
	if err != nil {
		return 0, err
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return fs.TotalSize(path), nil
}

// writeTXT materializes n generated records as delimited text.
func writeTXT(fs *hdfs.FileSystem, path string, gen generator, n int64) (int64, error) {
	f, err := fs.Create(path, hdfs.AnyNode)
	if err != nil {
		return 0, err
	}
	w := txt.NewWriter(f)
	for i := int64(0); i < n; i++ {
		if err := w.Write(gen.Record(i)); err != nil {
			return 0, err
		}
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return fs.TotalSize(path), nil
}

// writeRC materializes n generated records as an RCFile.
func writeRC(fs *hdfs.FileSystem, path string, gen generator, n int64, opts rcfile.Options, stats *sim.TaskStats) (int64, error) {
	f, err := fs.Create(path, hdfs.AnyNode)
	if err != nil {
		return 0, err
	}
	if stats != nil {
		f.SetStats(&stats.IO)
	}
	var cpu *sim.CPUStats
	if stats != nil {
		cpu = &stats.CPU
	}
	w, err := rcfile.NewWriter(f, path, gen.Schema(), opts, cpu)
	if err != nil {
		return 0, err
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return fs.TotalSize(path), nil
}

// writeCIF materializes n generated records as a CIF dataset directory.
func writeCIF(fs *hdfs.FileSystem, dir string, gen generator, n int64, opts core.LoadOptions, stats *sim.TaskStats) (int64, error) {
	w, err := core.NewWriter(fs, dir, gen.Schema(), opts, stats)
	if err != nil {
		return 0, err
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return fs.TreeSize(dir), nil
}

// cifVariant names a metadata-column layout from Table 1 and resolves it
// to load options plus the lazy/eager choice.
type cifVariant struct {
	name   string
	layout colfile.Options
	lazy   bool
}

// cifVariants returns the paper's five metadata-column layouts
// (Section 6.3): default, ZLIB/LZO compressed blocks, skip list, and
// dictionary compressed skip list.
func cifVariants() []cifVariant {
	return []cifVariant{
		{name: "CIF", layout: colfile.Options{Layout: colfile.Plain}, lazy: false},
		{name: "CIF-ZLIB", layout: colfile.Options{Layout: colfile.Block, Codec: "zlib"}, lazy: false},
		{name: "CIF-LZO", layout: colfile.Options{Layout: colfile.Block, Codec: "lzo"}, lazy: false},
		{name: "CIF-SL", layout: colfile.Options{Layout: colfile.SkipList}, lazy: true},
		{name: "CIF-DCSL", layout: colfile.Options{Layout: colfile.DCSL}, lazy: true},
	}
}
