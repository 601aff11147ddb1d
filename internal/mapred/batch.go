package mapred

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/sim"
)

// Shared scans: co-scheduling concurrent jobs behind one cursor set.
//
// Run charges every job a full pass over the column files it touches, so N
// concurrent jobs over the same dataset multiply I/O N-fold even when their
// surviving split sets overlap almost entirely. RunBatch lifts the job
// boundary out of the scan: co-submitted jobs whose inputs support shared
// scanning (SharedInputFormat) and name the same datasets are planned
// together, one map task runs per shared split-directory group, and a
// single cursor set drives every member job's map function — the shared
// scan pattern of interactive-scale columnar engines (Hall et al.,
// "Processing a Trillion Cells per Mouse Click").
//
// Sharing is an optimization, never a semantics change: each member job
// receives exactly the records, in the order, with the per-job accounting a
// solo Run would have produced (the sharedscan property test enforces
// byte-identical outputs). Physical work is charged once, to
// BatchResult.Shared; the per-job Results carry only logical counters for
// tasks that were shared.

// BatchResult is the outcome of a batch run.
type BatchResult struct {
	// Results holds each job's result in submission order. Jobs served by
	// shared map tasks carry their logical accounting (records processed /
	// pruned / filtered, output, plan) but no physical I/O of their own;
	// jobs that ran solo (input not shareable, or sole user of its
	// datasets) carry complete solo accounting.
	Results []*Result
	// Shared aggregates the physical work of all shared cursor sets —
	// I/O, decode CPU, SharedReads and BytesSaved — charged exactly once
	// however many jobs each cursor served.
	Shared sim.TaskStats
	// Tasks is the number of co-scheduled map tasks the batch ran (solo
	// fallback tasks not included); SharedTasks of them served more than
	// one job.
	Tasks       int
	SharedTasks int
	// Groups is the number of co-scheduled job groups.
	Groups int
	// Declined is the number of shared-scan admissions the cost model
	// declined across the batch: potential co-scan pairings whose union
	// predicate would have destroyed a member's pruning, summed over every
	// job's PruneReport.SharedDeclined.
	Declined int
}

// ChargedBytes is the batch's total charged traffic: shared cursors once,
// plus whatever the per-job results charged on their own (solo tasks,
// reduce-side writes).
func (b *BatchResult) ChargedBytes() int64 {
	total := b.Shared.IO.TotalChargedBytes()
	for _, r := range b.Results {
		if r == nil {
			continue
		}
		total += r.Total.IO.TotalChargedBytes() + r.ReduceStats.IO.TotalChargedBytes()
	}
	return total
}

// RunBatch executes the jobs as one batch, co-scheduling shared scans where
// the inputs allow it. Results are in job order.
func RunBatch(fs *hdfs.FileSystem, jobs ...*Job) (*BatchResult, error) {
	return runBatch(fs, jobs)
}

// Engine is a session-style front end to the batch scheduler: Submit
// queues jobs, Wait runs everything queued so far as one RunBatch and
// resolves the pending handles.
//
// Submit and Wait are goroutine-safe: concurrent submitters interleave
// into the pending queue (each lands in whichever Wait round swaps it out),
// and a handle's resolution is published through its done channel, so
// Result/WaitResult from any goroutine observe a fully written outcome.
// The scan server (internal/serve) leans on exactly this: many tenants
// enqueueing against one long-lived session.
type Engine struct {
	fs      *hdfs.FileSystem
	mu      sync.Mutex
	pending []*PendingJob
}

// NewEngine returns an engine over the filesystem.
func NewEngine(fs *hdfs.FileSystem) *Engine { return &Engine{fs: fs} }

// FS returns the filesystem the engine runs over, for callers (like the
// scan server's EXPLAIN path) that plan against the same data the engine
// will scan.
func (e *Engine) FS() *hdfs.FileSystem { return e.fs }

// PendingJob is a handle to a submitted job; its result becomes available
// after the Engine.Wait that ran it.
type PendingJob struct {
	job  *Job
	res  *Result
	err  error
	done chan struct{}
}

// Result returns the job's outcome. It errors until the batch has run;
// WaitResult blocks instead.
func (p *PendingJob) Result() (*Result, error) {
	select {
	case <-p.done:
		return p.res, p.err
	default:
		return nil, fmt.Errorf("mapred: job not run yet — call Engine.Wait first")
	}
}

// WaitResult blocks until some Engine.Wait has run the job's batch, then
// returns its outcome.
func (p *PendingJob) WaitResult() (*Result, error) {
	<-p.done
	return p.res, p.err
}

// Done returns a channel closed once the job's batch has run.
func (p *PendingJob) Done() <-chan struct{} { return p.done }

// Submit queues a job for the next Wait. Jobs queued together are
// co-scheduling candidates: the batch barrier is what lets the engine see
// overlapping scans before any of them starts. Safe for concurrent use.
func (e *Engine) Submit(job *Job) *PendingJob {
	p := &PendingJob{job: job, done: make(chan struct{})}
	e.mu.Lock()
	e.pending = append(e.pending, p)
	e.mu.Unlock()
	return p
}

// Wait runs every queued job as one batch, resolves their handles, and
// returns the batch outcome. A batch error resolves every handle with it.
func (e *Engine) Wait() (*BatchResult, error) {
	e.mu.Lock()
	pend := e.pending
	e.pending = nil
	e.mu.Unlock()
	if len(pend) == 0 {
		return &BatchResult{}, nil
	}
	jobs := make([]*Job, len(pend))
	for i, p := range pend {
		jobs[i] = p.job
	}
	br, err := runBatch(e.fs, jobs)
	for i, p := range pend {
		if err != nil {
			p.err = err
		} else {
			p.res = br.Results[i]
		}
		close(p.done)
	}
	return br, err
}

// RunBatch is Engine's one-shot form over its filesystem.
func (e *Engine) RunBatch(jobs ...*Job) (*BatchResult, error) {
	return runBatch(e.fs, jobs)
}

func runBatch(fs *hdfs.FileSystem, jobs []*Job) (*BatchResult, error) {
	for i, job := range jobs {
		if err := job.Validate(); err != nil {
			return nil, fmt.Errorf("mapred: batch job %d: %w", i, err)
		}
	}
	jobs = withCatalog(fs, jobs)
	br := &BatchResult{Results: make([]*Result, len(jobs))}

	// Group co-schedulable jobs: same shared-capable input format type over
	// the same datasets. Whether their split sets actually intersect is
	// decided per split-directory by SharedSplits — disjoint predicates
	// simply yield single-member tasks.
	type group struct {
		sif SharedInputFormat
		idx []int
	}
	var groups []*group
	byKey := make(map[string]*group)
	var solo []int
	for i, job := range jobs {
		sif, ok := job.Input.(SharedInputFormat)
		if !ok || hasDuplicatePaths(job.Conf.InputPaths) {
			// A dataset listed twice means the job scans it twice; shared
			// planning keys member sets by directory and cannot represent
			// multiplicity, so such jobs keep the solo path.
			solo = append(solo, i)
			continue
		}
		// The key includes the format's printed configuration and the
		// spec's task sizing: jobs whose instances (or typed specs) size
		// tasks differently plan differently and must not be driven by one
		// another's format.
		dps := 0
		if job.Conf.Scan != nil {
			dps = job.Conf.Scan.DirsPerSplit
		}
		key := fmt.Sprintf("%T|%#v|%d|%s", job.Input, job.Input, dps, strings.Join(job.Conf.InputPaths, "\x00"))
		g, ok := byKey[key]
		if !ok {
			g = &group{sif: sif}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}

	// Singleton groups gain nothing from the shared machinery; they run
	// through the unchanged solo path, so a batch of one costs exactly Run.
	for _, g := range groups {
		if len(g.idx) == 1 {
			solo = append(solo, g.idx[0])
			g.idx = nil
		}
	}
	for _, i := range solo {
		res, err := Run(fs, jobs[i])
		if err != nil {
			return nil, fmt.Errorf("mapred: batch job %d: %w", i, err)
		}
		br.Results[i] = res
	}
	for _, g := range groups {
		if len(g.idx) == 0 {
			continue
		}
		if err := runGroup(fs, jobs, g.idx, g.sif, br); err != nil {
			return nil, err
		}
		br.Groups++
	}
	return br, nil
}

// runGroup executes one co-scheduled job group: plan shared splits, run one
// map task per shared split with a worker pool, then shuffle and reduce
// each member job independently on its own map outputs.
func runGroup(fs *hdfs.FileSystem, jobs []*Job, idx []int, sif SharedInputFormat, br *BatchResult) error {
	confs := make([]*JobConf, len(idx))
	members := make([]*Job, len(idx))
	numParts := make([]int, len(idx))
	for k, i := range idx {
		confs[k] = &jobs[i].Conf
		members[k] = jobs[i]
		numParts[k] = jobs[i].Conf.NumReducers
		if jobs[i].Reducer == nil || numParts[k] < 1 {
			numParts[k] = 1
		}
	}
	shSplits, reports, err := sif.SharedSplits(fs, confs)
	if err != nil {
		return err
	}
	splits := make([]Split, len(shSplits))
	for i, sp := range shSplits {
		splits[i] = sp.Split
	}
	nodes := scheduleSplits(fs, splits)

	taskOuts := make([][]*taskOutput, len(shSplits))
	sharedStats := make([]sim.TaskStats, len(shSplits))
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range taskCh {
				outs, shared, err := runSharedTask(fs, sif, members, confs, numParts, shSplits[t], nodes[t])
				if err != nil {
					fail(fmt.Errorf("mapred: shared task %d (%s): %w", t, shSplits[t].Split, err))
					continue
				}
				taskOuts[t] = outs
				sharedStats[t] = shared
			}
		}()
	}
	for t := range shSplits {
		taskCh <- t
	}
	close(taskCh)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	for k, i := range idx {
		res := &Result{Plan: reports[k]}
		br.Declined += reports[k].SharedDeclined
		var outs []*taskOutput
		for t, sp := range shSplits {
			pos := memberPos(sp.Members, k)
			if pos < 0 {
				continue
			}
			out := taskOuts[t][pos]
			res.MapTasks = append(res.MapTasks, TaskReport{Split: sp.Split.String(), Node: nodes[t], Stats: out.stats})
			res.Total.Add(out.stats)
			outs = append(outs, out)
		}
		// As in Run: splits the scheduler elided for this job ran no task,
		// so their pruning is credited to the job's aggregate directly.
		res.Total.SplitsPruned += int64(reports[k].SplitsPruned)
		res.Total.RecordsPruned += reports[k].RecordsPruned
		agg, err := jobAggregate(confs[k])
		if err != nil {
			return fmt.Errorf("mapred: batch job %d: %w", i, err)
		}
		if agg != nil {
			merged := scan.NewAggState(agg)
			for _, out := range outs {
				if out.agg == nil {
					continue
				}
				if err := merged.Merge(out.agg); err != nil {
					return fmt.Errorf("mapred: batch job %d: %w", i, err)
				}
			}
			res.Agg = merged
		} else if err := reducePhase(fs, jobs[i], outs, numParts[k], res); err != nil {
			return fmt.Errorf("mapred: batch job %d: %w", i, err)
		}
		br.Results[i] = res
	}
	for t := range shSplits {
		br.Shared.Add(sharedStats[t])
		if len(shSplits[t].Members) > 1 {
			br.SharedTasks++
		}
	}
	br.Tasks += len(shSplits)
	return nil
}

func hasDuplicatePaths(paths []string) bool {
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if seen[p] {
			return true
		}
		seen[p] = true
	}
	return false
}

func memberPos(members []int, k int) int {
	for pos, m := range members {
		if m == k {
			return pos
		}
	}
	return -1
}

// runSharedTask drives one shared split: a single SharedRecordReader fans
// records out to the member jobs' map functions, each member accumulating
// its own taskOutput exactly as a solo map task would.
func runSharedTask(fs *hdfs.FileSystem, sif SharedInputFormat, members []*Job, confs []*JobConf, numParts []int, sp SharedSplit, node hdfs.NodeID) ([]*taskOutput, sim.TaskStats, error) {
	outs := make([]*taskOutput, len(sp.Members))
	memberStats := make([]*sim.TaskStats, len(sp.Members))
	emits := make([]Emit, len(sp.Members))
	for pos, k := range sp.Members {
		out := &taskOutput{partitions: make([][]shufflePair, numParts[k])}
		outs[pos] = out
		memberStats[pos] = &out.stats
		emits[pos] = emitInto(out, numParts[k])
	}
	var shared sim.TaskStats
	rr, err := sif.OpenShared(fs, confs, sp.Split, sp.Members, node, memberStats, &shared)
	if err != nil {
		return nil, shared, err
	}
	for {
		key, vals, ms, ok, err := rr.Next()
		if err != nil {
			rr.Close()
			return nil, shared, err
		}
		if !ok {
			break
		}
		for i, pos := range ms {
			k := sp.Members[pos]
			outs[pos].stats.RecordsProcessed++
			if err := members[k].Mapper.Map(key, vals[i], emits[pos]); err != nil {
				rr.Close()
				return nil, shared, err
			}
		}
	}
	// Close before reading shared: the reader folds its cursor accounting
	// (per-column I/O, SharedReads, BytesSaved) into shared on Close.
	if err := rr.Close(); err != nil {
		return nil, shared, err
	}
	if ar, ok := rr.(AggSharedRecordReader); ok {
		// Aggregating members folded inside the scan; carry their partial
		// states out with the task.
		for pos, st := range ar.AggStates() {
			outs[pos].agg = st
		}
	}
	for pos, k := range sp.Members {
		if members[k].Combiner != nil {
			if err := combine(members[k], outs[pos]); err != nil {
				return nil, shared, err
			}
		}
	}
	return outs, shared, nil
}
