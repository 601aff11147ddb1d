package mapred

import (
	"fmt"

	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/sim"
	"colmr/internal/vec"
)

// Split is a non-overlapping partition of the input assigned to one map
// task (the paper's footnote 1).
type Split interface {
	// Hosts returns candidate nodes for running the split's map task,
	// ranked best-first (typically by how many of the split's bytes are
	// local). An empty slice means no locality preference.
	Hosts(fs *hdfs.FileSystem) []hdfs.NodeID
	// String describes the split for logs and errors.
	String() string
}

// RecordReader iterates the key/value pairs of one split.
type RecordReader interface {
	// Next returns the next pair. ok is false at the end of the split.
	Next() (key, value any, ok bool, err error)
	// Close releases resources.
	Close() error
}

// AggRecordReader is implemented by readers that can answer an aggregation
// pushed into the scan (scan.Spec.Agg) without surfacing records: the
// engine calls DrainAggregate instead of the Next loop, and the split's
// contribution comes back as a partial scan.AggState to merge with the
// other tasks'. CIF readers answer from zone statistics and decoded
// vectors (core.Reader.DrainAggregate).
type AggRecordReader interface {
	RecordReader
	// DrainAggregate consumes the split and returns its aggregate state.
	DrainAggregate() (*scan.AggState, error)
}

// AggSharedRecordReader is implemented by shared readers whose aggregating
// members fold inside the scan: after the reader is exhausted, AggStates
// returns each member's folded state (nil for members that surface
// records), indexed like OpenShared's members slice.
type AggSharedRecordReader interface {
	SharedRecordReader
	AggStates() []*scan.AggState
}

// InputFormat generates splits and reads records from them — Hadoop's
// central extensibility point.
type InputFormat interface {
	// Splits lists the splits for the job's input.
	Splits(fs *hdfs.FileSystem, conf *JobConf) ([]Split, error)
	// Open returns a RecordReader for the split, reading from the given
	// node and charging work to stats. Formats read their configuration
	// (e.g. column projections) from conf.
	Open(fs *hdfs.FileSystem, conf *JobConf, split Split, node hdfs.NodeID, stats *sim.TaskStats) (RecordReader, error)
}

// PlannedInputFormat is implemented by input formats whose split generation
// is itself a planning step — CIF's scheduler-tier split elision drops
// whole split-directories from column-file footer statistics before any map
// task exists. The engine prefers PlannedSplits when available and records
// the report in Result.Plan; Splits remains the capability-free path.
type PlannedInputFormat interface {
	InputFormat
	// PlannedSplits lists the splits for the job's input along with a
	// report of the pruning decisions made while generating them.
	PlannedSplits(fs *hdfs.FileSystem, conf *JobConf) ([]Split, scan.PruneReport, error)
}

// SharedSplit is one co-scheduled map task of a batch: a split plus the
// member jobs it serves. Members are indices into the conf slice handed to
// SharedInputFormat.SharedSplits (batch-local, not global job ids).
type SharedSplit struct {
	Split   Split
	Members []int
}

// SharedInputFormat is implemented by input formats whose readers can be
// co-scheduled: one cursor set per split serves several jobs at once, each
// job receiving exactly the records (and the per-job accounting) a solo run
// would have produced. CIF implements it by reading the union of the jobs'
// columns at the union predicate's selectivity and demultiplexing with
// per-job residual predicates (RunBatch, internal/core SharedReader).
type SharedInputFormat interface {
	PlannedInputFormat
	// SharedSplits plans the jobs' splits together: per-job split planning
	// (scheduler-tier elision included) runs with each job's own predicate,
	// then split-directories surviving for more than one job are merged
	// into shared splits. The returned reports are per job, in conf order.
	SharedSplits(fs *hdfs.FileSystem, confs []*JobConf) ([]SharedSplit, []scan.PruneReport, error)
	// OpenShared opens one reader driving a single cursor set for the
	// split's member jobs. memberStats receives each member's logical
	// accounting (records pruned / filtered / materialized for that job);
	// shared receives the physical work (I/O, decode, SharedReads,
	// BytesSaved), charged exactly once for the whole member set.
	OpenShared(fs *hdfs.FileSystem, confs []*JobConf, split Split, members []int, node hdfs.NodeID, memberStats []*sim.TaskStats, shared *sim.TaskStats) (SharedRecordReader, error)
}

// SharedRecordReader iterates one shared split for several member jobs.
type SharedRecordReader interface {
	// Next returns the next record qualifying for at least one member job.
	// members lists the qualifying members as positions into the members
	// slice OpenShared received; vals[i] is the record as members[i] sees
	// it (that job's projection and materialization mode).
	Next() (key any, vals []any, members []int, ok bool, err error)
	// Close releases the cursor set and folds its physical accounting into
	// the shared stats.
	Close() error
}

// RecordWriter persists job output pairs.
type RecordWriter interface {
	Write(key, value any) error
	Close() error
}

// OutputFormat transforms job output pairs into a disk format — the dual of
// InputFormat.
type OutputFormat interface {
	// Open returns a writer for one output partition.
	Open(fs *hdfs.FileSystem, conf *JobConf, partition int, stats *sim.TaskStats) (RecordWriter, error)
}

// Emit passes a key/value pair out of a map or reduce function.
type Emit func(key, value any) error

// Mapper is a user map function.
type Mapper interface {
	Map(key, value any, emit Emit) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(key, value any, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(key, value any, emit Emit) error { return f(key, value, emit) }

// Reducer is a user reduce function. Values arrive in deterministic order.
type Reducer interface {
	Reduce(key any, values []any, emit Emit) error
}

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key any, values []any, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key any, values []any, emit Emit) error { return f(key, values, emit) }

// JobConf carries job configuration, mirroring Hadoop's JobConf: input
// paths, output path, reducer count, and the typed scan specification.
type JobConf struct {
	InputPaths  []string
	OutputPath  string
	NumReducers int
	// Scan is the typed scan specification — projection, predicate,
	// materialization mode, elision, task sizing, aggregation — and the
	// only way to configure a scan. The builder (core.ScanDataset) fills it
	// in; CIF consumes it directly, and RCFile takes its projection from
	// Scan.Columns.
	Scan *scan.Spec
	// Cache is the cross-batch scan cache of the Session that runs the
	// job, attached by Session.RunBatch/Run; nil disables caching. It is
	// runtime state, not configuration: CIF readers hand it to their
	// column-file streams so regions hot from earlier batches charge no
	// I/O.
	Cache *hdfs.ScanCache
	// VecCache is the Session's decoded-vector cache, attached alongside
	// Cache; nil disables vector caching. Where Cache keeps charged byte
	// regions resident (skipping the disk), VecCache keeps decoded column
	// vectors resident (skipping the decode CPU too) — warm vectorized
	// rounds serve batches straight from memory.
	VecCache *vec.Cache
}

// Job is a configured MapReduce job.
type Job struct {
	Conf    JobConf
	Input   InputFormat
	Output  OutputFormat
	Mapper  Mapper
	Reducer Reducer // nil for map-only jobs
	// Combiner, when set, runs over each map task's output before the
	// shuffle, like Hadoop's combiner: it must be associative and emit
	// pairs of the same types it consumes.
	Combiner Reducer
}

// jobAggregate returns a job's pushed-down aggregation, nil when the job is
// a plain map/reduce job.
func jobAggregate(conf *JobConf) *scan.Aggregate {
	if conf.Scan == nil {
		return nil
	}
	return conf.Scan.Agg
}

// Validate checks the job is runnable.
func (j *Job) Validate() error {
	if j.Input == nil {
		return fmt.Errorf("mapred: job has no InputFormat")
	}
	if agg := jobAggregate(&j.Conf); agg != nil {
		// An aggregation job is answered inside the scan: no record reaches
		// a map function and no pairs are shuffled, so user functions have
		// nothing to run on — carrying them is a configuration bug, not a
		// combination to guess at.
		if err := agg.Validate(); err != nil {
			return err
		}
		if j.Mapper != nil || j.Reducer != nil || j.Combiner != nil {
			return fmt.Errorf("mapred: aggregation job carries map/reduce functions — the scan answers the aggregate; drop them or the aggregation")
		}
		return nil
	}
	if j.Mapper == nil {
		return fmt.Errorf("mapred: job has no Mapper")
	}
	if j.Output == nil {
		return fmt.Errorf("mapred: job has no OutputFormat (use NullOutput to discard output)")
	}
	if _, null := j.Output.(NullOutput); null && j.Conf.OutputPath != "" {
		return fmt.Errorf("mapred: OutputPath %q set but Output is NullOutput — output would be silently discarded", j.Conf.OutputPath)
	}
	if j.Reducer != nil && j.Conf.NumReducers < 1 {
		return fmt.Errorf("mapred: reducer set but NumReducers = %d", j.Conf.NumReducers)
	}
	if j.Combiner != nil && j.Reducer == nil {
		return fmt.Errorf("mapred: combiner set without a reducer")
	}
	return nil
}
