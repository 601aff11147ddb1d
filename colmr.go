// Package colmr is a Go implementation of the column-oriented storage
// techniques for MapReduce described in Floratou, Patel, Shekita and Tata,
// "Column-Oriented Storage Techniques for MapReduce", PVLDB 4(7), 2011 —
// the CIF/COF design that preceded the Parquet/ORC generation of columnar
// Hadoop formats.
//
// The module contains a complete, self-contained stack:
//
//   - a simulated HDFS with block replication and pluggable block placement
//     (including the paper's co-locating ColumnPlacementPolicy);
//   - a MapReduce engine with Hadoop's InputFormat/OutputFormat extension
//     points, locality-aware scheduling, and shuffle/sort/reduce;
//   - an Avro-like serialization framework with schemas, generic records,
//     and complex types (arrays, maps, nested records);
//   - the storage formats: delimited text, SequenceFiles (four variants),
//     RCFile, and the paper's CIF/COF column format with plain, skip-list,
//     compressed-block, and dictionary-compressed-skip-list column layouts
//     plus lazy record construction;
//   - workload generators and benchmark harnesses that regenerate every
//     table and figure of the paper's evaluation (see EXPERIMENTS.md).
//
// This package re-exports the user-facing API; implementation lives under
// internal/. The quickstart in examples/quickstart/main.go shows the full
// write-load-query cycle in ~60 lines.
package colmr

import (
	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Cluster and filesystem.
type (
	// ClusterConfig describes the modeled cluster (nodes, slots, disks,
	// network, block size).
	ClusterConfig = sim.ClusterConfig
	// CostModel prices measured work counters into simulated seconds.
	CostModel = sim.CostModel
	// TaskStats accumulates a task's I/O and CPU work counters.
	TaskStats = sim.TaskStats
	// FileSystem is the simulated HDFS namenode + datanodes.
	FileSystem = hdfs.FileSystem
	// NodeID identifies a datanode.
	NodeID = hdfs.NodeID
	// BlockPlacementPolicy chooses replica locations for new blocks.
	BlockPlacementPolicy = hdfs.BlockPlacementPolicy
)

// AnyNode is the node id used when locality does not matter.
const AnyNode = hdfs.AnyNode

// DefaultCluster returns the paper's 40-node cluster configuration.
func DefaultCluster() ClusterConfig { return sim.DefaultCluster() }

// SingleNode returns a one-node configuration for microbenchmarks.
func SingleNode() ClusterConfig { return sim.SingleNode() }

// DefaultModel returns the calibrated cost model for the default cluster.
func DefaultModel() CostModel { return sim.DefaultModel() }

// NewFileSystem creates a simulated HDFS over the given cluster. The seed
// makes block placement deterministic.
func NewFileSystem(cfg ClusterConfig, seed int64) *FileSystem { return hdfs.New(cfg, seed) }

// NewColumnPlacementPolicy returns the paper's co-locating block placement
// policy (install with FileSystem.SetPlacementPolicy).
func NewColumnPlacementPolicy() BlockPlacementPolicy { return hdfs.NewColumnPlacementPolicy() }

// Schemas and records.
type (
	// Schema is a column/record type descriptor.
	Schema = serde.Schema
	// Field is a named record field.
	Field = serde.Field
	// Record is the generic record abstraction map functions consume;
	// both eager and lazy records implement it.
	Record = serde.Record
	// GenericRecord is an eagerly materialized record.
	GenericRecord = serde.GenericRecord
)

// ParseSchema parses the paper's schema DSL (see serde.Parse for the
// grammar):
//
//	URLInfo { string url, time fetchTime, map<string> metadata, bytes content }
func ParseSchema(src string) (*Schema, error) { return serde.Parse(src) }

// MustParseSchema is ParseSchema that panics on error.
func MustParseSchema(src string) *Schema { return serde.MustParse(src) }

// NewRecord returns an empty record of the given schema.
func NewRecord(s *Schema) *GenericRecord { return serde.NewRecord(s) }

// Primitive and composite schema constructors, for building schemas
// programmatically (AddColumn and tests).
func BoolSchema() *Schema          { return serde.Bool() }
func IntSchema() *Schema           { return serde.Int() }
func LongSchema() *Schema          { return serde.Long() }
func DoubleSchema() *Schema        { return serde.Double() }
func StringSchema() *Schema        { return serde.String() }
func BytesSchema() *Schema         { return serde.Bytes() }
func TimeSchema() *Schema          { return serde.Time() }
func ArrayOf(elem *Schema) *Schema { return serde.ArrayOf(elem) }
func MapOf(value *Schema) *Schema  { return serde.MapOf(value) }
func RecordOf(name string, fields ...Field) *Schema {
	return serde.RecordOf(name, fields...)
}

// MapReduce.
type (
	// Job is a configured MapReduce job.
	Job = mapred.Job
	// JobConf carries job configuration.
	JobConf = mapred.JobConf
	// JobResult reports a finished job's work counters.
	JobResult = mapred.Result
	// InputFormat generates splits and record readers.
	InputFormat = mapred.InputFormat
	// OutputFormat writes job output.
	OutputFormat = mapred.OutputFormat
	// Emit passes a pair out of a map or reduce function.
	Emit = mapred.Emit
	// MapperFunc adapts a function to the Mapper interface.
	MapperFunc = mapred.MapperFunc
	// ReducerFunc adapts a function to the Reducer interface.
	ReducerFunc = mapred.ReducerFunc
	// TextOutput writes key<TAB>value lines.
	TextOutput = mapred.TextOutput
	// NullOutput discards output (for measurement-only jobs).
	NullOutput = mapred.NullOutput
)

// RunJob executes a MapReduce job and returns its work counters.
func RunJob(fs *FileSystem, job *Job) (*JobResult, error) { return mapred.Run(fs, job) }

// The typed query API. A ScanSpec carries a job's whole scan contract —
// projection, predicate, materialization mode, elision, task sizing — as
// one first-class value on JobConf.Scan, the only place a scan is
// configured; the planner and readers consume it directly. ScanDataset
// starts the fluent builder:
//
//	job := colmr.ScanDataset("/data/visits").
//		Columns("url", "fetchTime").
//		Where(colmr.HasPrefix("url", "http://www.ibm.com")).
//		Lazy(true).
//		Job(mapper)
//
// The builder's Columns is the paper's ColumnInputFormat.setColumns, Where
// pushes a selection, and Lazy, Elide, Bloom and Vectorize flip the scan's
// switches.
type (
	// ScanSpec is the typed scan specification (scan.Spec).
	ScanSpec = scan.Spec
	// ScanBuilder fluently assembles a ScanSpec, JobConf, or Job.
	ScanBuilder = core.ScanBuilder
)

// ScanDataset starts a typed scan over one or more CIF datasets.
func ScanDataset(paths ...string) *ScanBuilder { return core.ScanDataset(paths...) }

// Shared scans — the batch engine. Jobs run together in one RunBatch over
// the same CIF datasets are planned together: one map task runs per shared
// split-directory group, a single cursor set reads the union of the jobs'
// columns at the union predicate's selectivity, and per-job residual
// predicates demultiplex the stream. Each job receives exactly the records
// and per-job accounting of a solo run; physical I/O is charged once, to
// BatchResult.Shared. A BatchResult is a batch run's outcome: per-job
// results plus the once-charged shared-scan accounting.
type BatchResult = mapred.BatchResult

// Long-lived sessions — the engine plus cross-batch scan caching. A
// Session retains an LRU-bounded cache of column-file regions keyed by
// (file, generation, region) across its RunBatch rounds, so a steady
// stream of jobs over the same datasets reuses hot reads without
// co-submission; TaskStats.CacheHits and BytesFromCache report the reuse.
// With CacheBytes 0 a Session's round is byte-for-byte a RunBatch.
// Generations make stale hits impossible: reloading a dataset orphans its
// old cache entries, and AddColumn (new files beside untouched ones)
// invalidates nothing.
type (
	// Session is the long-lived query front end (mapred.Session).
	Session = mapred.Session
	// SessionOptions configures a session's cache budget.
	SessionOptions = mapred.SessionOptions
)

// NewSession returns a session over the filesystem.
func NewSession(fs *FileSystem, opts SessionOptions) *Session { return mapred.NewSession(fs, opts) }

// RunBatch executes the jobs as one batch, sharing scans where their
// planned split sets intersect.
func RunBatch(fs *FileSystem, jobs ...*Job) (*BatchResult, error) {
	return mapred.RunBatch(fs, jobs...)
}

// AutoDirsPerSplit, passed to ScanBuilder.DirsPerSplit (ScanSpec's
// DirsPerSplit), sizes map tasks from estimated predicate selectivity: few
// surviving, sparsely matching split-directories merge into fewer tasks.
const AutoDirsPerSplit = core.AutoDirsPerSplit

// CIF / COF — the paper's contribution.
type (
	// ColumnInputFormat (CIF) reads CIF datasets with projection pushdown
	// and lazy record construction.
	ColumnInputFormat = core.InputFormat
	// ColumnWriter (COF) loads records into split-directories of column
	// files.
	ColumnWriter = core.Writer
	// LoadOptions configures a COF load (split sizing, per-column
	// layouts).
	LoadOptions = core.LoadOptions
	// ColumnOptions selects a column file's physical layout.
	ColumnOptions = colfile.Options
	// ColumnLayout enumerates the physical layouts.
	ColumnLayout = colfile.Layout
)

// Column layouts (paper Sections 4.2, 5.2, 5.3).
const (
	// LayoutPlain stores concatenated values; skipping walks each record.
	LayoutPlain = colfile.Plain
	// LayoutSkipList interleaves skip blocks at 10/100/1000-record
	// boundaries for cheap skipping.
	LayoutSkipList = colfile.SkipList
	// LayoutBlock stores LZO- or ZLIB-compressed blocks with lazy
	// decompression.
	LayoutBlock = colfile.Block
	// LayoutDCSL is the dictionary compressed skip list for map columns.
	LayoutDCSL = colfile.DCSL
)

// NewColumnWriter starts a COF load into the dataset directory.
func NewColumnWriter(fs *FileSystem, dataset string, schema *Schema, opts LoadOptions, stats *TaskStats) (*ColumnWriter, error) {
	return core.NewWriter(fs, dataset, schema, opts, stats)
}

// Selection pushdown — the scan subsystem (internal/scan). A Predicate
// travels into CIF alongside the projection: zone-map statistics prune
// whole record groups without touching their bytes, filter columns decide
// the remaining records, and projected columns materialize only for
// matches.
// Predicate is a pushdown filter over records. The statistics backing
// group pruning (min/max/null-count/distinct/key-universe/Bloom-filter
// per record group) are internal to the column files; see
// internal/colfile.StatsSource and docs/FORMAT.md.
type Predicate = scan.Predicate

// PruneReport summarizes the scheduler tier's split-elision decisions for
// a job: split-directories dropped from column-file footer statistics
// before any map task existed. JobResult.Plan carries it.
type PruneReport = scan.PruneReport

// ParsePredicate reads a predicate from the scan expression language,
// e.g. `prefix(url, "http://www.ibm.com") && fetchTime > 1293840000000`.
func ParsePredicate(expr string) (Predicate, error) { return scan.Parse(expr) }

// Predicate builders. Comparison literals may be any Go integer or float
// type, string, bool, or []byte; numeric literals compare across the
// column's native width.
func Eq(col string, lit any) Predicate         { return scan.Eq(col, lit) }
func Ne(col string, lit any) Predicate         { return scan.Ne(col, lit) }
func Lt(col string, lit any) Predicate         { return scan.Lt(col, lit) }
func Le(col string, lit any) Predicate         { return scan.Le(col, lit) }
func Gt(col string, lit any) Predicate         { return scan.Gt(col, lit) }
func Ge(col string, lit any) Predicate         { return scan.Ge(col, lit) }
func Between(col string, lo, hi any) Predicate { return scan.Between(col, lo, hi) }
func HasPrefix(col, prefix string) Predicate   { return scan.HasPrefix(col, prefix) }
func KeyExists(col, key string) Predicate      { return scan.KeyExists(col, key) }
func IsNull(col string) Predicate              { return scan.IsNull(col) }
func NotNull(col string) Predicate             { return scan.NotNull(col) }
func And(kids ...Predicate) Predicate          { return scan.And(kids...) }
func Or(kids ...Predicate) Predicate           { return scan.Or(kids...) }
func Not(p Predicate) Predicate                { return scan.Not(p) }

// ReadDatasetSchema returns a CIF dataset's schema.
func ReadDatasetSchema(fs *FileSystem, dataset string) (*Schema, error) {
	return core.ReadSchema(fs, dataset)
}

// AddColumn appends a derived column to an existing CIF dataset — cheap
// schema evolution, one new file per split-directory (Section 4.3).
func AddColumn(fs *FileSystem, dataset, name string, colSchema *Schema, layout ColumnOptions, inputCols []string, compute func(rec Record) (any, error), stats *TaskStats) error {
	return core.AddColumn(fs, dataset, name, colSchema, layout, inputCols, compute, stats)
}

// LoadDataset converts any InputFormat-readable dataset into a CIF dataset.
func LoadDataset(fs *FileSystem, in InputFormat, conf *JobConf, schema *Schema, dest string, opts LoadOptions, stats *TaskStats) (int64, error) {
	return core.Load(fs, in, conf, schema, dest, opts, stats)
}

// Workload generators.
type (
	// CrawlOptions parameterizes the intranet-crawl generator.
	CrawlOptions = workload.CrawlOptions
	// Crawl generates URLInfo records (the paper's Figure 2 schema).
	Crawl = workload.Crawl
	// Synthetic generates the Section 6.2 microbenchmark records.
	Synthetic = workload.Synthetic
)

// NewCrawl returns a crawl-dataset generator.
func NewCrawl(opts CrawlOptions) *Crawl { return workload.NewCrawl(opts) }

// NewSynthetic returns the synthetic-dataset generator.
func NewSynthetic(seed int64) *Synthetic { return workload.NewSynthetic(seed) }
