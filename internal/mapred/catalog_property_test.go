package mapred_test

// The metadata catalog removes parsing and nothing else. For random
// datasets, predicates and member sets, planning (SharedSplits,
// PlannedSplits, Explain) and full runs must come out identical — splits,
// member sets, every field of every PruneReport, outputs, every counter of
// every sim.TaskStats — whichever catalog the jobs carry: none (the input
// format or the engine makes a transient one), a cold one, or a session's,
// warm from an earlier batch. A second test rewrites a dataset at the same
// paths under a warm session: generations, not Invalidate, keep it honest.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"colmr/internal/catalog"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// cpJobs stamps out the round's member set, writing under out: bpJob's
// random record scans, and every third member an aggregation pushed into
// the scan. The same seed gives the same jobs, so each way of running them
// gets its own copies (and output paths).
func cpJobs(seed int64, schema *serde.Schema, n int, out string) []*mapred.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*mapred.Job, n)
	for j := range jobs {
		if j%3 == 2 {
			agg, err := scan.ParseAggregate("count,min(t),max(t)")
			if err != nil {
				panic(err)
			}
			jobs[j] = core.ScanDataset("/d").Where(bpPredicate(rng, schema, 2)).Aggregate(agg).AggJob()
			continue
		}
		jobs[j] = bpJob(rng, schema, "/d", fmt.Sprintf("%s/%d", out, j))
	}
	return jobs
}

func cpConfs(jobs []*mapred.Job, cat *catalog.Catalog) []*mapred.JobConf {
	confs := make([]*mapred.JobConf, len(jobs))
	for i, job := range jobs {
		job.Conf.Catalog = cat
		confs[i] = &job.Conf
	}
	return confs
}

// cpPlan is everything planning decides for a member set.
type cpPlan struct {
	Shared        []mapred.SharedSplit
	SharedReports []scan.PruneReport
	Solo          [][]mapred.Split
	SoloReports   []scan.PruneReport
	Explained     []*core.QueryPlan
}

func cpPlanAll(t testing.TB, fs *hdfs.FileSystem, confs []*mapred.JobConf) cpPlan {
	t.Helper()
	in := &core.InputFormat{}
	var p cpPlan
	var err error
	if p.Shared, p.SharedReports, err = in.SharedSplits(fs, confs); err != nil {
		t.Fatal(err)
	}
	for _, conf := range confs {
		splits, report, err := in.PlannedSplits(fs, conf)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := in.Explain(fs, conf, sim.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		p.Solo = append(p.Solo, splits)
		p.SoloReports = append(p.SoloReports, report)
		p.Explained = append(p.Explained, plan)
	}
	return p
}

// cpOutcome is everything a run of a member set produced, in comparable form.
type cpOutcome struct {
	Results []mapred.Result
	Agg     []string
	Shared  sim.TaskStats
	Tasks   [3]int
	Out     [][]string
}

func cpOutcomeOf(t testing.TB, fs *hdfs.FileSystem, jobs []*mapred.Job, results []*mapred.Result, br *mapred.BatchResult) cpOutcome {
	t.Helper()
	var o cpOutcome
	if br != nil {
		o.Shared, o.Tasks = br.Shared, [3]int{br.Tasks, br.SharedTasks, br.Declined}
	}
	for j, res := range results {
		r := *res
		o.Agg = append(o.Agg, "")
		if r.Agg != nil {
			o.Agg[j], r.Agg = fmt.Sprint(r.Agg.Rows()), nil
		}
		o.Results = append(o.Results, r)
		var out []string
		if jobs[j].Conf.OutputPath != "" {
			parts := jobs[j].Conf.NumReducers
			if jobs[j].Reducer == nil || parts < 1 {
				parts = 1
			}
			out = readParts(t, fs, jobs[j].Conf.OutputPath, parts)
		}
		o.Out = append(o.Out, out)
	}
	return o
}

// TestCatalogPlanEquivalenceProperty runs three rounds; the benchmark of
// the same name runs nine.
func TestCatalogPlanEquivalenceProperty(t *testing.T) {
	t.Parallel()
	checkCatalogPlanEquivalenceProperty(t, 3)
}

func BenchmarkCatalogPlanEquivalenceProperty(b *testing.B) {
	for range b.N {
		checkCatalogPlanEquivalenceProperty(b, 9)
	}
}

func checkCatalogPlanEquivalenceProperty(t testing.TB, rounds int) {
	records := 240
	rng := rand.New(rand.NewSource(20111002))
	pruned, checked := 0, 0
	for round := 0; round < rounds; round++ {
		schema := bpSchema(rng)
		opts := bpLayouts[round%len(bpLayouts)]
		opts.SplitRecords = int64(20 + rng.Intn(60))
		fs := hdfs.New(sim.SingleNode(), int64(round))
		bpLoad(t, rng, fs, "/d", schema, opts, records)
		seed, n := rng.Int63(), 2+rng.Intn(4)
		jobsAt := func(out string) []*mapred.Job {
			return cpJobs(seed, schema, n, fmt.Sprintf("/out/%d/%s", round, out))
		}

		// Planning: no catalog attached, a cold one, the session's before
		// and after a batch has run through it.
		session := mapred.NewSession(fs, mapred.SessionOptions{})
		want := cpPlanAll(t, fs, cpConfs(jobsAt("p0"), nil))
		for _, r := range want.SharedReports {
			pruned += r.SplitsPruned
			checked += r.FilesChecked
		}
		check := func(how string, got cpPlan) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: planning through %s differs from a transient one:\n%+v\nwant\n%+v", round, how, got, want)
			}
		}
		check("a cold catalog", cpPlanAll(t, fs, cpConfs(jobsAt("p1"), catalog.New(fs))))
		check("a new session's catalog", cpPlanAll(t, fs, cpConfs(jobsAt("p2"), session.Catalog())))

		// Runs: the engine with its transient catalog is the reference;
		// the session runs the same batch cold, then warm.
		ref := jobsAt("engine")
		br, err := mapred.RunBatch(fs, ref...)
		if err != nil {
			t.Fatalf("round %d engine batch: %v", round, err)
		}
		wantRun := cpOutcomeOf(t, fs, ref, br.Results, br)
		for _, how := range []string{"session-cold", "session-warm"} {
			jobs := jobsAt(how)
			sbr, err := session.RunBatch(jobs...)
			if err != nil {
				t.Fatalf("round %d %s batch: %v", round, how, err)
			}
			if got := cpOutcomeOf(t, fs, jobs, sbr.Results, sbr); !reflect.DeepEqual(got, wantRun) {
				t.Fatalf("round %d: %s batch differs from the engine's:\n%+v\nwant\n%+v", round, how, got, wantRun)
			}
		}
		if session.Catalog().Len() == 0 {
			t.Fatalf("round %d: the session's catalog is empty after two batches", round)
		}
		check("a warm session's catalog", cpPlanAll(t, fs, cpConfs(jobsAt("p3"), session.Catalog())))

		// Solo runs, job by job: Run's own catalog against the warm session's.
		ref, warm := jobsAt("solo"), jobsAt("solo-warm")
		for j := range ref {
			a, err := mapred.Run(fs, ref[j])
			if err != nil {
				t.Fatalf("round %d job %d solo: %v", round, j, err)
			}
			if ref[j].Conf.Catalog != nil {
				t.Fatalf("round %d job %d: Run left its transient catalog on the caller's job", round, j)
			}
			b, err := session.Run(warm[j])
			if err != nil {
				t.Fatalf("round %d job %d through the session: %v", round, j, err)
			}
			wantSolo := cpOutcomeOf(t, fs, ref[j:j+1], []*mapred.Result{a}, nil)
			if got := cpOutcomeOf(t, fs, warm[j:j+1], []*mapred.Result{b}, nil); !reflect.DeepEqual(got, wantSolo) {
				t.Fatalf("round %d job %d: session run differs from Run:\n%+v\nwant\n%+v", round, j, got, wantSolo)
			}
		}
	}
	if pruned == 0 || checked == 0 {
		t.Errorf("the scheduler tier never fired (%d directories pruned, %d footers consulted): the property compared nothing", pruned, checked)
	}
}

// TestCatalogStaleAfterRewrite: a dataset removed and rewritten at the same
// paths — same file names, new namenode generations, different rows and a
// different schema — is answered from its new files by a session whose
// catalog is warm with the old ones, with no Invalidate in between.
// Invalidate then empties the catalog under the prefix, and only under it.
func TestCatalogStaleAfterRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := hdfs.New(sim.SingleNode(), 1)
	session := mapred.NewSession(fs, mapred.SessionOptions{})
	opts := bpLayouts[1]
	opts.SplitRecords = 40
	for rewrite := 0; rewrite < 3; rewrite++ {
		schema := bpSchema(rng)
		if rewrite > 0 {
			if err := fs.RemoveAll("/d"); err != nil {
				t.Fatal(err)
			}
		}
		bpLoad(t, rng, fs, "/d", schema, opts, 200+40*rewrite)
		seed := rng.Int63()
		for pass := 0; pass < 2; pass++ { // the second pass is answered from the catalog
			ref := cpJobs(seed, schema, 4, fmt.Sprintf("/out/%d/%d/engine", rewrite, pass))
			br, err := mapred.RunBatch(fs, ref...)
			if err != nil {
				t.Fatal(err)
			}
			jobs := cpJobs(seed, schema, 4, fmt.Sprintf("/out/%d/%d/session", rewrite, pass))
			sbr, err := session.RunBatch(jobs...)
			if err != nil {
				t.Fatalf("rewrite %d pass %d: %v", rewrite, pass, err)
			}
			want := cpOutcomeOf(t, fs, ref, br.Results, br)
			if got := cpOutcomeOf(t, fs, jobs, sbr.Results, sbr); !reflect.DeepEqual(got, want) {
				t.Fatalf("rewrite %d pass %d: the session answered\n%+v\nthe files say\n%+v", rewrite, pass, got, want)
			}
		}
	}
	bpLoad(t, rng, fs, "/other", bpSchema(rng), opts, 80)
	if _, err := session.Run(core.ScanDataset("/other").Where(scan.Le("t", 500)).Job(mapred.MapperFunc(
		func(_, _ any, _ mapred.Emit) error { return nil }))); err != nil {
		t.Fatal(err)
	}
	all := session.Catalog().Len()
	session.Invalidate("/d")
	other := session.Catalog().Len()
	if other == 0 || other >= all {
		t.Fatalf("Invalidate(/d) left %d of %d entries; /other's should remain and /d's go", other, all)
	}
	session.Invalidate("/other")
	if n := session.Catalog().Len(); n != 0 {
		t.Fatalf("%d entries left after invalidating both datasets", n)
	}
}
