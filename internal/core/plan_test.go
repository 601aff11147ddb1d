package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// openTask opens a planned task and returns the plan its reader opened
// cursors against, closing the reader.
func openTask(t *testing.T, fs *hdfs.FileSystem, confs []*mapred.JobConf, task mapred.SharedSplit) (*scanPlan, error) {
	t.Helper()
	stats := make([]*sim.TaskStats, len(task.Members))
	for i := range stats {
		stats[i] = &sim.TaskStats{}
	}
	sr, err := (&InputFormat{}).OpenShared(fs, confs, task.Split, task.Members, hdfs.AnyNode, stats, &sim.TaskStats{})
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	return sr.(*SharedReader).scanPlan, nil
}

func confsOf(jobs ...*ScanBuilder) []*mapred.JobConf {
	confs := make([]*mapred.JobConf, len(jobs))
	for i, b := range jobs {
		conf := b.Conf()
		confs[i] = &conf
	}
	return confs
}

// TestPlanIdentity: a batch is planned once per co-admission cluster and
// directory schema. Every task of a cluster opens cursors against its
// cluster's plan, clusters admission splits apart get a plan each, a plan's
// query error reaches the tasks that open it — with the text a hand-built
// split's Open gives — and a batch whose every directory is elided plans
// nothing that could fail.
func TestPlanIdentity(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadClustered(t, fs, "/e", 1600, 16)
	in := &InputFormat{}
	scanE := func() *ScanBuilder { return ScanDataset("/e").Columns("s").Elide(false) }

	t.Run("one cluster, one plan", func(t *testing.T) {
		confs := confsOf(scanE().Where(scan.Le("y", int32(5))), scanE().Where(scan.Le("y", int32(7))).Lazy(true))
		tasks, _, err := in.SharedSplits(fs, confs)
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) != 16 {
			t.Fatalf("%d tasks, want one per directory", len(tasks))
		}
		want := tasks[0].Split.(*Split).plan
		if want == nil || len(want.jobs) != 2 {
			t.Fatalf("the first task carries plan %+v, want one of both members", want)
		}
		for i, task := range tasks {
			if got := task.Split.(*Split).plan; got != want {
				t.Errorf("task %d carries its own plan", i)
			}
			if got, err := openTask(t, fs, confs, task); err != nil || got != want {
				t.Errorf("task %d opened against %p (%v), want its cluster's %p", i, got, err, want)
			}
		}
		// The tasks read their shared plan concurrently, to the last record
		// (the race detector holds the plan to being read-only).
		var wg sync.WaitGroup
		for _, task := range tasks {
			wg.Add(1)
			go func(task mapred.SharedSplit) {
				defer wg.Done()
				stats := []*sim.TaskStats{{}, {}}
				sr, err := in.OpenShared(fs, confs, task.Split, task.Members, hdfs.AnyNode, stats, &sim.TaskStats{})
				if err != nil {
					t.Errorf("task %s: %v", task.Split, err)
					return
				}
				defer sr.Close()
				for ok := true; ok && err == nil; {
					_, _, _, ok, err = sr.Next()
				}
				if err != nil {
					t.Errorf("task %s: %v", task.Split, err)
				}
			}(task)
		}
		wg.Wait()
	})

	t.Run("two clusters, two plans", func(t *testing.T) {
		confs := confsOf(scanE().Where(scan.Eq("y", int32(0))), scanE())
		tasks, reports, err := in.SharedSplits(fs, confs)
		if err != nil {
			t.Fatal(err)
		}
		if reports[0].SharedDeclined == 0 {
			t.Fatal("a selective member and an unfiltered one were admitted together")
		}
		plans := map[int][]*scanPlan{}
		for _, task := range tasks {
			if len(task.Members) != 1 {
				t.Fatalf("task %s shares members %v", task.Split, task.Members)
			}
			m := task.Members[0]
			if p := task.Split.(*Split).plan; !slices.Contains(plans[m], p) {
				plans[m] = append(plans[m], p)
			}
		}
		if len(plans[0]) != 1 || len(plans[1]) != 1 || plans[0][0] == plans[1][0] {
			t.Fatalf("plans per member %v, want one each, distinct", plans)
		}
		for m, p := range plans {
			if len(p[0].jobs) != 1 || p[0].jobs[0].src != confs[m].Scan {
				t.Errorf("member %d's plan is not planned for it", m)
			}
		}
	})

	t.Run("query error at open", func(t *testing.T) {
		want := `core: predicate references unknown column "nope"`
		bad := scanE().Where(scan.Eq("nope", int64(1)))
		_, err := in.Open(fs, confsOf(bad)[0], &Split{Dirs: []string{"/e/s0"}}, hdfs.AnyNode, nil)
		var qe *scan.QueryError
		if err == nil || err.Error() != want || !errors.As(err, &qe) {
			t.Fatalf("hand-built split: Open error %v, want the query error %s", err, want)
		}
		confs := confsOf(bad, scanE().Where(scan.Le("y", int32(5))))
		tasks, _, err := in.SharedSplits(fs, confs)
		if err != nil {
			t.Fatalf("planning a batch with a bad member failed before any task: %v", err)
		}
		for _, task := range tasks {
			if _, err := openTask(t, fs, confs, task); err == nil || err.Error() != want {
				t.Errorf("task %s: open error %v, want %s", task.Split, err, want)
			}
		}
	})

	t.Run("every directory elided", func(t *testing.T) {
		// x tops out below 1000: nothing survives the scheduler tier, so the
		// unknown projection is never resolved.
		job := func(p scan.Predicate) *mapred.Job {
			return ScanDataset("/e").Columns("nope").Where(p).
				Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
		}
		tasks, _, err := in.SharedSplits(fs, []*mapred.JobConf{&job(scan.Gt("x", int64(5000))).Conf, &job(scan.Gt("x", int64(6000))).Conf})
		if err != nil || len(tasks) != 0 {
			t.Fatalf("%d tasks, %v; want none and no error", len(tasks), err)
		}
		if _, err := mapred.RunBatch(fs, job(scan.Gt("x", int64(5000))), job(scan.Gt("x", int64(6000)))); err != nil {
			t.Fatalf("an all-elided batch failed: %v", err)
		}
	})
}

// loadMixedSchema builds a dataset whose odd split-directories carry a column
// z the even ones lack: the same clustered rows, half of them evolved by
// AddColumn.
func loadMixedSchema(t *testing.T, fs *hdfs.FileSystem, dataset string) {
	t.Helper()
	loadClustered(t, fs, "/plain", 800, 8)
	loadClustered(t, fs, "/evolved", 800, 8)
	err := AddColumn(fs, "/evolved", "z", serde.Long(), colfile.Options{}, []string{"x"}, func(rec serde.Record) (any, error) {
		x, err := rec.Get("x")
		if err != nil {
			return nil, err
		}
		return 2 * x.(int64), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf("/plain/s%d", i)
		if i%2 == 1 {
			src = fmt.Sprintf("/evolved/s%d", i)
		}
		infos, err := fs.List(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			data, err := fs.ReadFile(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(fmt.Sprintf("%s/s%d/%s", dataset, i, fi.Name()), data, hdfs.AnyNode); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// mixedOutcome is what a job's run produced, in comparable form: its
// records (each with its own schema's fields), its aggregate, its logical
// counters and its plan report.
type mixedOutcome struct {
	rows    []string
	agg     string
	logical [7]int64
	plan    scan.PruneReport
}

// TestPlanMixedSchemaBatchMatchesSolo: plans are keyed by directory schema.
// Over a dataset whose split-directories disagree on a column, a batch
// plans one cluster twice — once per schema — and every member's records,
// aggregate, logical counters and plan report equal its solo run's; a member
// that projects the column only some directories have fails in the batch
// with its solo run's query error.
func TestPlanMixedSchemaBatchMatchesSolo(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadMixedSchema(t, fs, "/mix")
	agg, err := scan.ParseAggregate("count,sum(y)")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	jobs := func() ([]*mapred.Job, [][]string) {
		rows := make([][]string, 3)
		collect := func(k int) mapred.Mapper {
			return mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
				rec := v.(serde.Record)
				var b strings.Builder
				for _, name := range rec.Schema().FieldNames() {
					val, err := rec.Get(name)
					if err != nil {
						return err
					}
					fmt.Fprintf(&b, "%s=%v ", name, val)
				}
				mu.Lock()
				rows[k] = append(rows[k], b.String())
				mu.Unlock()
				return nil
			})
		}
		return []*mapred.Job{
			ScanDataset("/mix").Where(scan.Le("x", int64(700))).Job(collect(0)),
			ScanDataset("/mix").Columns("s").Where(scan.Gt("x", int64(300))).Lazy(true).Job(collect(1)),
			ScanDataset("/mix").Where(scan.Le("x", int64(500))).Aggregate(agg).AggJob(),
		}, rows
	}
	outcome := func(res *mapred.Result, rows []string) mixedOutcome {
		o := mixedOutcome{rows: append([]string(nil), rows...), plan: res.Plan}
		sort.Strings(o.rows)
		o.plan.SharedDeclined = 0
		if res.Agg != nil {
			o.agg = fmt.Sprint(res.Agg.Rows())
		}
		st := res.Total
		o.logical = [7]int64{st.RecordsProcessed, st.RecordsPruned, st.RecordsFiltered, st.GroupsPruned, st.BloomPruned, st.SplitsPruned, st.RowsAggregated}
		return o
	}

	soloJobs, soloRows := jobs()
	var want []mixedOutcome
	for k, job := range soloJobs {
		res, err := mapred.Run(fs, job)
		if err != nil {
			t.Fatalf("solo job %d: %v", k, err)
		}
		want = append(want, outcome(res, soloRows[k]))
	}
	if !strings.Contains(strings.Join(want[0].rows, ""), "z=") {
		t.Fatal("the unprojected member saw no row with z")
	}

	batchJobs, batchRows := jobs()
	confs := make([]*mapred.JobConf, len(batchJobs))
	for k, job := range batchJobs {
		confs[k] = &job.Conf
	}
	tasks, _, err := (&InputFormat{}).SharedSplits(fs, confs)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[*scanPlan]bool{}
	for _, task := range tasks {
		plans[task.Split.(*Split).plan] = true
	}
	if len(plans) < 2 {
		t.Errorf("%d tasks over two schemas opened %d plans", len(tasks), len(plans))
	}
	br, err := mapred.RunBatch(fs, batchJobs...)
	if err != nil {
		t.Fatal(err)
	}
	if br.SharedTasks == 0 {
		t.Fatal("the batch shared no task")
	}
	for k, res := range br.Results {
		if got := outcome(res, batchRows[k]); fmt.Sprint(got) != fmt.Sprint(want[k]) {
			t.Errorf("member %d in the batch:\n%+v\nsolo:\n%+v", k, got, want[k])
		}
	}

	// A projection only the evolved directories satisfy fails alone and in
	// the batch with one query error.
	zJob := func() *mapred.Job {
		return ScanDataset("/mix").Columns("z").Where(scan.Le("x", int64(700))).
			Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
	}
	queryErr := func(err error) string {
		var qe *scan.QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("error %v is not a query error", err)
		}
		return qe.Error()
	}
	_, soloErr := mapred.Run(fs, zJob())
	others, _ := jobs()
	_, batchErr := mapred.RunBatch(fs, append(others, zJob())...)
	if got, want := queryErr(batchErr), queryErr(soloErr); got != want {
		t.Errorf("batch error %q, solo %q", got, want)
	}
}
