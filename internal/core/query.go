package core

import (
	"colmr/internal/mapred"
	"colmr/internal/scan"
)

// ScanBuilder fluently assembles a typed CIF scan — the front door of the
// query API. It produces a scan.Spec (the only scan configuration the
// planner and readers consume), a ready JobConf, or a whole map job:
//
//	job := core.ScanDataset("/data/visits").
//		Columns("url", "fetchTime").
//		Where(scan.HasPrefix("url", "http://www.ibm.com")).
//		Lazy(true).
//		Job(mapper)
//
// Each method returns the builder for chaining; Spec/Conf/Job snapshot the
// state, so one builder can stamp out several variants.
type ScanBuilder struct {
	paths []string
	spec  scan.Spec
}

// ScanDataset starts a builder over one or more CIF dataset directories.
// Its Conf serves other input formats too, which read what they support of
// the spec: RCFile takes the projection.
func ScanDataset(paths ...string) *ScanBuilder {
	return &ScanBuilder{paths: append([]string(nil), paths...)}
}

// Columns sets the projection — only the named columns' files are opened
// and materialized; the paper's ColumnInputFormat.setColumns. Unset means
// every column.
func (b *ScanBuilder) Columns(cols ...string) *ScanBuilder {
	b.spec.Columns = append([]string(nil), cols...)
	return b
}

// Where sets the pushdown predicate: zone-map statistics prune record
// groups and split-directories, filter columns decide the remainder.
func (b *ScanBuilder) Where(p scan.Predicate) *ScanBuilder {
	b.spec.Predicate = p
	return b
}

// Lazy selects lazy record construction (paper Section 5).
func (b *ScanBuilder) Lazy(on bool) *ScanBuilder {
	b.spec.Lazy = on
	return b
}

// Elide enables or disables scheduler-tier split elision (default on).
func (b *ScanBuilder) Elide(on bool) *ScanBuilder {
	b.spec.NoElide = !on
	return b
}

// Bloom enables or disables Bloom-filter consultation at every pruning
// tier (default on). Filters already written into stats footers are simply
// not consulted when off, restoring zone-map-only pruning.
func (b *ScanBuilder) Bloom(on bool) *ScanBuilder {
	b.spec.NoBloom = !on
	return b
}

// Vectorize enables or disables batch predicate execution (default on).
// With a predicate set, record groups are decoded per column into typed
// vectors and evaluated batch-at-a-time over selection bitmaps; results,
// record order, and pruning counters are identical either way, only the
// decode cost model changes. Off restores the record-at-a-time loop.
func (b *ScanBuilder) Vectorize(on bool) *ScanBuilder {
	b.spec.NoVec = !on
	return b
}

// Aggregate pushes an aggregation into the scan: the functions (and the
// optional GROUP BY) are answered inside the readers — from zone
// statistics where they suffice, from decoded vectors otherwise — and no
// record ever reaches a map function. Use AggJob (or a Conf with neither
// Mapper nor Output) to run it; the job's Result.Agg carries the rows.
func (b *ScanBuilder) Aggregate(a *scan.Aggregate) *ScanBuilder {
	b.spec.Agg = a.Clone()
	return b
}

// DirsPerSplit assigns this many split-directories to one map task
// (AutoDirsPerSplit sizes tasks from estimated selectivity).
func (b *ScanBuilder) DirsPerSplit(n int) *ScanBuilder {
	b.spec.DirsPerSplit = n
	return b
}

// Spec returns a copy of the assembled scan specification.
func (b *ScanBuilder) Spec() *scan.Spec { return b.spec.Clone() }

// Conf returns a JobConf carrying the input paths and the typed spec.
func (b *ScanBuilder) Conf() mapred.JobConf {
	return mapred.JobConf{
		InputPaths: append([]string(nil), b.paths...),
		Scan:       b.Spec(),
	}
}

// Job returns a runnable map job over the scan: CIF input, the given
// mapper, and output discarded (NullOutput). Callers add Reducer, Combiner,
// OutputPath/Output, and NumReducers as needed — the conf and spec are
// owned by the returned job.
func (b *ScanBuilder) Job(m mapred.Mapper) *mapred.Job {
	return &mapred.Job{
		Conf:   b.Conf(),
		Input:  &InputFormat{},
		Mapper: m,
		Output: mapred.NullOutput{},
	}
}

// AggJob returns a runnable aggregation job over the scan (Aggregate must
// have been set): no mapper, no reducer, no output — the scan answers the
// query, and the run's Result.Agg carries the aggregate rows.
func (b *ScanBuilder) AggJob() *mapred.Job {
	return &mapred.Job{
		Conf:  b.Conf(),
		Input: &InputFormat{},
	}
}
