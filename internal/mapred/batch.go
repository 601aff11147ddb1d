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
//
// A group carries what its tasks share (the filesystem, the batch's jobs, the
// members' confs, the input that plans and opens them); a mapTask carries one
// task's own state from scheduling to its Result: split, members, node, stats
// sinks, outputs and error. The engine is the one task driver: experiments
// and commands run their scans through Run or RunBatch, not by opening splits
// themselves (bench's serial scan harness and its ordered Table 2 conversion
// aside).

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
	groups := groupJobs(fs, jobs)
	for g := range groups {
		if err := runGroup(&groups[g], br, jobErr); err != nil {
			return nil, err
		}
	}
	return br, nil
}

func batchJobErr(i int, err error) error { return fmt.Errorf("mapred: batch job %d: %w", i, err) }

// group is jobs run together: the batch's filesystem and jobs, the group's
// members as indexes into jobs and their confs in member order, and in, which
// plans and opens the group's tasks.
type group struct {
	fs    *hdfs.FileSystem
	jobs  []*Job
	in    groupInput
	idx   []int
	confs []*JobConf
}

// newGroup returns the group of jobs idx, planned and opened through in.
func newGroup(fs *hdfs.FileSystem, jobs []*Job, in groupInput, idx []int) group {
	g := group{fs: fs, jobs: jobs, in: in, idx: idx, confs: make([]*JobConf, len(idx))}
	for k, i := range idx {
		g.confs[k] = &jobs[i].Conf
	}
	return g
}

// groupJobs groups the jobs in the order the groups run. Jobs whose format
// shares scans over the same datasets form one group (SharedSplits decides
// per split-directory which of them share each task). Any other job is a
// group of one: its format cannot share, it lists a dataset twice (shared
// planning cannot represent multiplicity), or no job shares with it. Groups
// of one run first — those that cannot share, then the partnerless, each in
// job order — then co-scheduled groups; a session's cache state depends on it.
func groupJobs(fs *hdfs.FileSystem, jobs []*Job) []group {
	if len(jobs) == 1 { // Run: a group of one, with no key to build
		return []group{newGroup(fs, jobs, soloInput{jobs[0]}, []int{0})}
	}
	var order, shared []group
	byKey := make(map[string]int)
	for i, job := range jobs {
		sif, ok := job.Input.(SharedInputFormat)
		if !ok || hasDuplicatePaths(job.Conf.InputPaths) {
			order = append(order, newGroup(fs, jobs, soloInput{job}, []int{i}))
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
			cosched = append(cosched, newGroup(fs, jobs, g.in, g.idx))
		} else {
			order = append(order, newGroup(fs, jobs, soloInput{jobs[g.idx[0]]}, g.idx))
		}
	}
	return append(order, cosched...)
}

// runGroup runs one group and assembles its members' Results. A group of one
// books everything on its job's Result, and its errors are its job's; a
// co-scheduled group books its cursor sets' physical work to br.Shared.
func runGroup(g *group, br *BatchResult, jobErr func(int, error) error) error {
	solo := len(g.idx) == 1
	groupErr, kind := func(err error) error { return err }, "shared task"
	if solo {
		groupErr, kind = func(err error) error { return jobErr(g.idx[0], err) }, "map task"
	}
	splits, reports, err := g.in.SharedSplits(g.fs, g.confs)
	if err != nil {
		return groupErr(err)
	}
	tasks := make([]mapTask, len(splits))
	for t, sp := range splits {
		tasks[t].SharedSplit = sp
		if !solo {
			tasks[t].shared = new(sim.TaskStats)
		}
	}
	scheduleSplits(g.fs, tasks)
	runTasks(g, tasks)
	for t := range tasks {
		if err := tasks[t].err; err != nil {
			return groupErr(fmt.Errorf("mapred: %s %d (%s): %w", kind, t, tasks[t].Split, err))
		}
	}

	for k, i := range g.idx {
		res := &Result{Plan: reports[k]}
		br.Declined += reports[k].SharedDeclined
		var outs []*taskOutput
		if solo && len(tasks) > 0 { // every task serves the one member
			res.MapTasks, outs = make([]TaskReport, 0, len(tasks)), make([]*taskOutput, 0, len(tasks))
		}
		for t := range tasks {
			task := &tasks[t]
			if pos := slices.Index(task.Members, k); pos >= 0 {
				out := &task.outs[pos]
				res.MapTasks = append(res.MapTasks, TaskReport{Split: task.Split.String(), Node: task.node, Stats: out.stats})
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
		if agg := jobAggregate(g.confs[k]); agg != nil {
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
		} else if err := reducePhase(g.fs, g.jobs[i], outs, numParts(g.jobs[i]), res); err != nil {
			return jobErr(i, err)
		}
		br.Results[i] = res
	}
	if !solo {
		for t := range tasks {
			br.Shared.Add(*tasks[t].shared)
			if len(tasks[t].Members) > 1 {
				br.SharedTasks++
			}
		}
		br.Tasks += len(tasks)
		br.Groups++
	}
	return nil
}

// runTasks runs a group's map tasks on one worker per CPU, at most eight,
// each task keeping its outcome in its own mapTask.
func runTasks(g *group, tasks []mapTask) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := min(max(runtime.NumCPU(), 1), 8); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				tasks[t].err = runTask(g, &tasks[t])
			}
		}()
	}
	for t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
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
