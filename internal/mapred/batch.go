package mapred

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/sim"
)

// The engine. A batch's jobs fall into groups, and every group runs the same
// steps: plan, schedule for locality, one worker pool, one task loop over a
// SharedRecordReader (runTask), then each member's Result and its aggregate
// merge or shuffle and reduce. Jobs sharing scans over the same datasets form
// a co-scheduled group — one cursor set per task drives every member, the
// shared-scan pattern of Hall et al., "Processing a Trillion Cells per Mouse
// Click" — whose physical work is charged once, to BatchResult.Shared. Any
// other job is a group of one, read through its own format (soloInput).

// BatchResult is the outcome of a batch run.
type BatchResult struct {
	// Results holds each job's result in submission order. A job run in a
	// group of one carries all of its work, physical included; a job served
	// by co-scheduled tasks carries its logical accounting (records
	// processed / pruned / filtered, output, plan) and no physical I/O.
	Results []*Result
	// Shared aggregates the physical work of the co-scheduled groups' cursor
	// sets — I/O, decode CPU, SharedReads and BytesSaved — charged exactly
	// once however many jobs each cursor served. Groups of one add nothing.
	Shared sim.TaskStats
	// Tasks is the number of co-scheduled map tasks the batch ran (groups of
	// one not included); SharedTasks of them served more than one job.
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

// Work is the batch's total work: the shared cursor sets once, plus every
// job's own map- and reduce-side work (groups of one, logical counters,
// output writes).
func (b *BatchResult) Work() sim.TaskStats {
	w := b.Shared
	for _, r := range b.Results {
		w.Add(r.Total)
		w.Add(r.ReduceStats)
	}
	return w
}

// RunBatch executes the jobs as one batch, co-scheduling shared scans where
// the inputs allow it. Results are in job order.
func RunBatch(fs *hdfs.FileSystem, jobs ...*Job) (*BatchResult, error) {
	return runBatch(fs, jobs, batchJobErr)
}

// runBatch runs the jobs' groups in turn. jobErr attributes an error to job
// i: RunBatch names the job, Run does not.
func runBatch(fs *hdfs.FileSystem, jobs []*Job, jobErr func(i int, err error) error) (*BatchResult, error) {
	for i, job := range jobs {
		if err := job.Validate(); err != nil {
			return nil, jobErr(i, err)
		}
	}
	br := &BatchResult{Results: make([]*Result, len(jobs))}
	for _, g := range groupJobs(jobs) {
		if err := runGroup(fs, jobs, g, br, jobErr); err != nil {
			return nil, err
		}
	}
	return br, nil
}

func batchJobErr(i int, err error) error { return fmt.Errorf("mapred: batch job %d: %w", i, err) }

// group is jobs run together; in plans and opens their tasks.
type group struct {
	in  groupInput
	idx []int
}

// groupJobs groups the jobs in the order the groups run. Jobs whose format
// shares scans over the same datasets form one group (SharedSplits decides
// per split-directory which of them share each task). Any other job is a
// group of one: its format cannot share, it lists a dataset twice (shared
// planning cannot represent multiplicity), or no job shares with it. Groups
// of one run first — those that cannot share, then the partnerless, each in
// job order — then co-scheduled groups; a session's cache state depends on it.
func groupJobs(jobs []*Job) []group {
	if len(jobs) == 1 { // Run: a group of one, with no key to build
		return []group{{in: soloInput{jobs[0]}, idx: []int{0}}}
	}
	var order, shared []group
	byKey := make(map[string]int)
	for i, job := range jobs {
		sif, ok := job.Input.(SharedInputFormat)
		if !ok || hasDuplicatePaths(job.Conf.InputPaths) {
			order = append(order, group{in: soloInput{job}, idx: []int{i}})
			continue
		}
		// The key includes the format's printed configuration (CIF has
		// none; another SharedInputFormat may) and the spec's task sizing:
		// jobs that plan differently must not be driven by one another's
		// format.
		dps := 0
		if job.Conf.Scan != nil {
			dps = job.Conf.Scan.DirsPerSplit
		}
		key := fmt.Sprintf("%T|%#v|%d|%s", job.Input, job.Input, dps, strings.Join(job.Conf.InputPaths, "\x00"))
		g, ok := byKey[key]
		if !ok {
			g = len(shared)
			byKey[key] = g
			shared = append(shared, group{in: sif})
		}
		shared[g].idx = append(shared[g].idx, i)
	}
	var cosched []group
	for _, g := range shared {
		if len(g.idx) > 1 {
			cosched = append(cosched, g)
		} else {
			order = append(order, group{in: soloInput{jobs[g.idx[0]]}, idx: g.idx})
		}
	}
	return append(order, cosched...)
}

// runGroup runs one group and assembles its members' Results. A group of one
// books everything on its job's Result, and its errors are its job's; a
// co-scheduled group books its cursor sets' physical work to br.Shared.
func runGroup(fs *hdfs.FileSystem, jobs []*Job, g group, br *BatchResult, jobErr func(int, error) error) error {
	solo := len(g.idx) == 1
	groupErr, kind := func(err error) error { return err }, "shared task"
	if solo {
		groupErr, kind = func(err error) error { return jobErr(g.idx[0], err) }, "map task"
	}
	confs := make([]*JobConf, len(g.idx))
	for k, i := range g.idx {
		confs[k] = &jobs[i].Conf
	}
	tasks, reports, err := g.in.SharedSplits(fs, confs)
	if err != nil {
		return groupErr(err)
	}
	nodes := scheduleSplits(fs, tasks)
	var sharedStats []sim.TaskStats
	if !solo {
		sharedStats = make([]sim.TaskStats, len(tasks))
	}
	done := runTasks(fs, g, jobs, confs, tasks, nodes, sharedStats)
	for t, d := range done {
		if d.err != nil {
			return groupErr(fmt.Errorf("mapred: %s %d (%s): %w", kind, t, tasks[t].Split, d.err))
		}
	}

	for k, i := range g.idx {
		res := &Result{Plan: reports[k]}
		br.Declined += reports[k].SharedDeclined
		var outs []*taskOutput
		if solo && len(tasks) > 0 { // every task serves the one member
			res.MapTasks, outs = make([]TaskReport, 0, len(tasks)), make([]*taskOutput, 0, len(tasks))
		}
		for t, sp := range tasks {
			if pos := slices.Index(sp.Members, k); pos >= 0 {
				out := &done[t].outs[pos]
				res.MapTasks = append(res.MapTasks, TaskReport{Split: sp.Split.String(), Node: nodes[t], Stats: out.stats})
				res.Total.Add(out.stats)
				outs = append(outs, out)
			}
		}
		// Elided splits ran no task, so the scheduler's pruning is credited
		// to the job's aggregate counters directly; RecordsPruned then means
		// "records proven irrelevant at any tier" regardless of where the
		// proof fired.
		res.Total.SplitsPruned += int64(reports[k].SplitsPruned)
		res.Total.RecordsPruned += reports[k].RecordsPruned
		if agg := jobAggregate(confs[k]); agg != nil {
			// Aggregation jobs have no shuffle or reduce: merge the tasks'
			// partial states into the job's answer.
			res.Agg = scan.NewAggState(agg)
			for _, out := range outs {
				if out.agg == nil {
					continue
				}
				if err := res.Agg.Merge(out.agg); err != nil {
					return jobErr(i, err)
				}
			}
		} else if err := reducePhase(fs, jobs[i], outs, numParts(jobs[i]), res); err != nil {
			return jobErr(i, err)
		}
		br.Results[i] = res
	}
	if !solo {
		for t := range tasks {
			br.Shared.Add(sharedStats[t])
			if len(tasks[t].Members) > 1 {
				br.SharedTasks++
			}
		}
		br.Tasks += len(tasks)
		br.Groups++
	}
	return nil
}

type taskResult struct {
	*mapTask
	err error
}

// runTasks runs a group's map tasks on one worker per CPU, at most eight,
// charging task t's cursor set to shared[t] when shared is non-nil.
func runTasks(fs *hdfs.FileSystem, g group, jobs []*Job, confs []*JobConf, tasks []SharedSplit, nodes []hdfs.NodeID, shared []sim.TaskStats) []taskResult {
	done := make([]taskResult, len(tasks))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := min(max(runtime.NumCPU(), 1), 8); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				var sh *sim.TaskStats
				if shared != nil {
					sh = &shared[t]
				}
				done[t].mapTask, done[t].err = runTask(fs, g.in, jobs, g.idx, confs, tasks[t], nodes[t], sh)
			}
		}()
	}
	for t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
	return done
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
