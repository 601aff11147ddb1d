package mapred

import (
	"bytes"
	"fmt"
	"slices"

	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// TaskReport records where a map task ran and what it did.
type TaskReport struct {
	Split string
	Node  hdfs.NodeID
	Stats sim.TaskStats
}

// Result is the outcome of a job run: per-task and aggregated work
// counters, ready to be priced by a sim.CostModel.
type Result struct {
	// MapTasks reports each map task in split order.
	MapTasks []TaskReport
	// Total aggregates all map-task counters. Because the cost model is
	// linear, pricing Total equals summing per-task prices.
	Total sim.TaskStats
	// ReduceStats aggregates reduce-side work (output writing).
	ReduceStats sim.TaskStats
	// ReduceGroups is the number of distinct keys reduced.
	ReduceGroups int64
	// OutputRecords is the number of pairs written by the job.
	OutputRecords int64
	// Plan summarizes split generation when the input format plans
	// (PlannedInputFormat): how many split-directories existed and how
	// many were elided before scheduling. Zero-valued otherwise.
	Plan scan.PruneReport
	// Agg holds the aggregation result for jobs whose scan carried one
	// (scan.Spec.Agg): every map task's partial state merged. Nil for
	// plain map/reduce jobs. Agg.Rows() yields the result rows.
	Agg *scan.AggState
}

type shufflePair struct {
	key, value any
	valBytes   []byte // KeyBytes(value): the reduce-input tiebreaker
}

// taskOutput is one member's share of a map task. A one-partition job's
// partition lives in part1 and costs no allocation, so a taskOutput must not
// be copied once emitInto has readied it.
type taskOutput struct {
	stats      sim.TaskStats
	partitions [][]shufflePair
	part1      [1][]shufflePair
	mapper     Mapper
	emit       Emit           // appends map output to partitions
	agg        *scan.AggState // an aggregation job's partial fold
}

// Run executes the job as a batch of one (see RunBatch) and returns its
// result.
func Run(fs *hdfs.FileSystem, job *Job) (*Result, error) {
	br, err := runBatch(fs, []*Job{job}, func(_ int, err error) error { return err })
	if err != nil {
		return nil, err
	}
	return br.Results[0], nil
}

// scheduleSplits assigns each task's split to a node, preferring the
// split's locality candidates and balancing assignment counts — a
// deterministic stand-in for Hadoop's locality-aware task scheduler.
func scheduleSplits(fs *hdfs.FileSystem, tasks []SharedSplit) []hdfs.NodeID {
	n := fs.Config().Nodes
	load := make([]int, n)
	nodes := make([]hdfs.NodeID, len(tasks))
	for i, task := range tasks {
		best := hdfs.NodeID(-1)
		for _, c := range task.Split.Hosts(fs) {
			if int(c) < 0 || int(c) >= n {
				continue
			}
			if best < 0 || load[c] < load[best] {
				best = c
			}
		}
		if best < 0 {
			// No locality preference: least-loaded node overall.
			best = 0
			for j := 1; j < n; j++ {
				if load[j] < load[best] {
					best = hdfs.NodeID(j)
				}
			}
		}
		nodes[i] = best
		load[best]++
	}
	return nodes
}

// numParts is the number of shuffle partitions a job's map output fills.
func numParts(job *Job) int {
	if job.Reducer == nil || job.Conf.NumReducers < 1 {
		return 1
	}
	return job.Conf.NumReducers
}

// mapTask is one map task: its members' outputs and the stats sinks its
// reader charges. A one-member task's live in out1 and stats1, so a group of
// one allocates no slices per task.
type mapTask struct {
	outs   []taskOutput
	stats  []*sim.TaskStats
	out1   [1]taskOutput
	stats1 [1]*sim.TaskStats
}

// runTask is the one task loop. The reader hands each record to the map
// function of every member it qualifies for, each member filling its own
// taskOutput as a task of its own would; aggregating members surface no
// records and take their partial states from the reader; combiners run last.
func runTask(fs *hdfs.FileSystem, in groupInput, jobs []*Job, idx []int, confs []*JobConf, sp SharedSplit, node hdfs.NodeID, shared *sim.TaskStats) (*mapTask, error) {
	t := &mapTask{}
	t.outs, t.stats = t.out1[:], t.stats1[:]
	if n := len(sp.Members); n > 1 {
		t.outs, t.stats = make([]taskOutput, n), make([]*sim.TaskStats, n)
	}
	for pos, k := range sp.Members {
		t.stats[pos] = &t.outs[pos].stats
		if job := jobs[idx[k]]; jobAggregate(confs[k]) == nil {
			t.outs[pos].mapper, t.outs[pos].emit = job.Mapper, emitInto(&t.outs[pos], numParts(job))
		}
	}
	rr, err := in.OpenShared(fs, confs, sp.Split, sp.Members, node, t.stats, shared)
	if err != nil {
		return nil, err
	}
	for {
		key, vals, ms, ok, err := rr.Next()
		if err != nil {
			rr.Close()
			return nil, err
		}
		if !ok {
			break
		}
		for i, pos := range ms {
			out := &t.outs[pos]
			out.stats.RecordsProcessed++
			if err := out.mapper.Map(key, vals[i], out.emit); err != nil {
				rr.Close()
				return nil, err
			}
		}
	}
	// Close before AggStates, and before the caller reads shared: a CIF
	// reader folds its cursor accounting into the stats on Close.
	if err := rr.Close(); err != nil {
		return nil, err
	}
	if ar, ok := rr.(AggSharedRecordReader); ok {
		for pos, st := range ar.AggStates() {
			t.outs[pos].agg = st
		}
	}
	for pos, k := range sp.Members {
		if job := jobs[idx[k]]; job.Combiner != nil {
			if err := combine(job, &t.outs[pos]); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// groupInput plans and opens a group's tasks: a co-scheduled group's
// SharedInputFormat, or soloInput.
type groupInput interface {
	SharedSplits(fs *hdfs.FileSystem, confs []*JobConf) ([]SharedSplit, []scan.PruneReport, error)
	OpenShared(fs *hdfs.FileSystem, confs []*JobConf, split Split, members []int, node hdfs.NodeID, memberStats []*sim.TaskStats, shared *sim.TaskStats) (SharedRecordReader, error)
}

// soloInput runs a group of one through its job's own InputFormat: planned
// with PlannedSplits (Splits when the format does not plan), opened with
// Open, and read as a one-member shared scan. Open books the task's physical
// work on the member's stats beside its logical counters, so the group adds
// nothing to BatchResult.Shared.
type soloInput struct{ job *Job }

// soloMembers is every task's member list in a group of one. Read only.
var soloMembers = []int{0}

func (s soloInput) SharedSplits(fs *hdfs.FileSystem, confs []*JobConf) ([]SharedSplit, []scan.PruneReport, error) {
	var splits []Split
	var plan scan.PruneReport
	var err error
	if pf, ok := s.job.Input.(PlannedInputFormat); ok {
		splits, plan, err = pf.PlannedSplits(fs, confs[0])
	} else {
		splits, err = s.job.Input.Splits(fs, confs[0])
	}
	if err != nil {
		return nil, nil, err
	}
	tasks := make([]SharedSplit, len(splits))
	for i, sp := range splits {
		tasks[i] = SharedSplit{Split: sp, Members: soloMembers}
	}
	return tasks, []scan.PruneReport{plan}, nil
}

func (s soloInput) OpenShared(fs *hdfs.FileSystem, confs []*JobConf, split Split, _ []int, node hdfs.NodeID, memberStats []*sim.TaskStats, _ *sim.TaskStats) (SharedRecordReader, error) {
	rr, err := s.job.Input.Open(fs, confs[0], split, node, memberStats[0])
	if err != nil {
		return nil, err
	}
	return &soloReader{RecordReader: rr, agg: jobAggregate(confs[0]), stats: memberStats[0]}, nil
}

// soloReader is a RecordReader seen as a one-member SharedRecordReader. For
// an aggregating member, Next drains the split into a partial state — inside
// the scan when the reader can (AggRecordReader: CIF's zone stats and
// vectors), else record by record — and reports the end; AggStates hands the
// state over.
type soloReader struct {
	RecordReader
	agg   *scan.Aggregate
	stats *sim.TaskStats
	val   [1]any
	state [1]*scan.AggState
}

func (r *soloReader) Next() (any, []any, []int, bool, error) {
	if r.agg != nil {
		var err error
		if ar, ok := r.RecordReader.(AggRecordReader); ok {
			r.state[0], err = ar.DrainAggregate()
		} else {
			r.state[0], err = drainAggRecords(r.RecordReader, r.agg, r.stats)
		}
		return nil, nil, nil, false, err
	}
	key, v, ok, err := r.RecordReader.Next()
	if !ok || err != nil {
		return nil, nil, nil, false, err
	}
	r.val[0] = v
	return key, r.val[:], soloMembers, true, nil
}

// AggStates implements AggSharedRecordReader.
func (r *soloReader) AggStates() []*scan.AggState { return r.state[:] }

// drainAggRecords is the capability-free aggregation path: the reader's
// records fold one by one through their field accessors. Formats with an
// AggRecordReader never come here; this keeps aggregation correct (if not
// fast) over any input.
func drainAggRecords(reader RecordReader, agg *scan.Aggregate, stats *sim.TaskStats) (*scan.AggState, error) {
	st := scan.NewAggState(agg)
	for {
		_, v, ok, err := reader.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return st, nil
		}
		rec, isRec := v.(serde.Record)
		if !isRec {
			return nil, fmt.Errorf("mapred: cannot aggregate over %T records (input format lacks AggRecordReader)", v)
		}
		if err := st.FoldRecord(recordEval{rec}); err != nil {
			return nil, err
		}
		stats.RowsAggregated++
	}
}

// recordEval adapts a materialized record to scan.Evaluator for the
// capability-free fold.
type recordEval struct {
	rec serde.Record
}

// Value implements scan.Evaluator.
func (e recordEval) Value(col string) (any, error) { return e.rec.Get(col) }

// HasKey implements scan.Evaluator: never answered — the fold reads values.
func (e recordEval) HasKey(string, string) (bool, bool, error) { return false, false, nil }

// emitInto readies out's numParts shuffle partitions and returns the Emit
// closure appending map-output pairs to them with the shuffle's accounting.
func emitInto(out *taskOutput, numParts int) Emit {
	out.partitions = out.part1[:]
	if numParts > 1 {
		out.partitions = make([][]shufflePair, numParts)
	}
	return func(key, value any) error {
		// Hashed whatever numParts is: it is also what rejects a key of an
		// unsupported type.
		h, err := hashKey(key)
		if err != nil {
			return err
		}
		vb, err := KeyBytes(value)
		if err != nil {
			return err
		}
		p := partitionOf(h, numParts)
		out.partitions[p] = append(out.partitions[p], shufflePair{key: key, value: value, valBytes: vb})
		out.stats.OutputRecords++
		out.stats.OutputBytes += SizeOf(key) + SizeOf(value)
		return nil
	}
}

// combine runs the job's combiner over each partition of one map task's
// output, shrinking the shuffle. Output accounting is recomputed so
// OutputBytes reflects what actually crosses the network.
func combine(job *Job, out *taskOutput) error {
	var outBytes, outRecords int64
	for p := range out.partitions {
		pairs := out.partitions[p]
		if len(pairs) == 0 {
			continue
		}
		var combined []shufflePair
		emit := func(key, value any) error {
			if _, err := typeRank(key); err != nil {
				return err
			}
			vb, err := KeyBytes(value)
			if err != nil {
				return err
			}
			combined = append(combined, shufflePair{key: key, value: value, valBytes: vb})
			outRecords++
			outBytes += SizeOf(key) + SizeOf(value)
			return nil
		}
		if err := groupAndReduce(job.Combiner, pairs, emit, nil); err != nil {
			return err
		}
		out.partitions[p] = combined
	}
	out.stats.OutputBytes = outBytes
	out.stats.OutputRecords = outRecords
	return nil
}

// reducePhase merges map outputs per partition, sorts, groups by key, and
// runs the reducer (or writes map output directly for map-only jobs).
func reducePhase(fs *hdfs.FileSystem, job *Job, outputs []*taskOutput, numParts int, res *Result) error {
	for p := 0; p < numParts; p++ {
		n := 0
		for _, out := range outputs {
			n += len(out.partitions[p])
		}
		pairs := make([]shufflePair, 0, n)
		for _, out := range outputs {
			pairs = append(pairs, out.partitions[p]...)
		}
		writer, err := job.Output.Open(fs, &job.Conf, p, &res.ReduceStats)
		if err != nil {
			return err
		}
		write := func(k, v any) error {
			res.OutputRecords++
			return writer.Write(k, v)
		}
		if job.Reducer != nil {
			err = groupAndReduce(job.Reducer, pairs, write, &res.ReduceGroups)
		} else {
			for _, pr := range pairs {
				if err = write(pr.key, pr.value); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
		if err := writer.Close(); err != nil {
			return err
		}
	}
	return nil
}

// groupAndReduce sorts pairs by key (value bytes as tiebreaker, for fully
// deterministic reduce input), groups equal keys, and applies the reducer,
// counting the groups into groups when it is non-nil.
func groupAndReduce(r Reducer, pairs []shufflePair, emit Emit, groups *int64) error {
	// The sort permutes indexes, not pairs: the comparator is the one a stable
	// sort of the pairs themselves would use, so the order is the same.
	order := make([]int32, len(pairs))
	for i := range order {
		order[i] = int32(i)
	}
	var sortErr error
	slices.SortStableFunc(order, func(i, j int32) int {
		c, err := Compare(pairs[i].key, pairs[j].key)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if c != 0 {
			return c
		}
		return bytes.Compare(pairs[i].valBytes, pairs[j].valBytes)
	})
	if sortErr != nil {
		return sortErr
	}
	for i := 0; i < len(order); {
		key := pairs[order[i]].key
		j := i + 1
		for j < len(order) {
			c, err := Compare(key, pairs[order[j]].key)
			if err != nil {
				return err
			}
			if c != 0 {
				break
			}
			j++
		}
		values := make([]any, 0, j-i)
		for _, k := range order[i:j] {
			values = append(values, pairs[k].value)
		}
		if groups != nil {
			*groups++
		}
		if err := r.Reduce(key, values, emit); err != nil {
			return err
		}
		i = j
	}
	return nil
}
