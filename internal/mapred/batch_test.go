package mapred_test

import (
	"fmt"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// loadBatchDataset writes a small clustered CIF dataset: x is monotone in
// the load order over [0, 1000), y cycles 0..9.
func loadBatchDataset(t *testing.T, fs *hdfs.FileSystem, dataset string, records int64, splits int64) *serde.Schema {
	t.Helper()
	schema := serde.RecordOf("B",
		serde.Field{Name: "x", Type: serde.Long()},
		serde.Field{Name: "y", Type: serde.Int()},
		serde.Field{Name: "s", Type: serde.String()})
	opts := core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20},
		SplitRecords: (records + splits - 1) / splits,
	}
	w, err := core.NewWriter(fs, dataset, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < records; i++ {
		rec := serde.NewRecord(schema)
		rec.SetAt(0, i*1000/records)
		rec.SetAt(1, int32(i%10))
		rec.SetAt(2, fmt.Sprintf("s%03d", i%50))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return schema
}

func countJob(dataset string, pred scan.Predicate) *mapred.Job {
	return &mapred.Job{
		Conf:  core.ScanDataset(dataset).Columns("s").Where(pred).Conf(),
		Input: &core.InputFormat{},
		Mapper: mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
			if _, err := v.(serde.Record).Get("s"); err != nil {
				return err
			}
			return nil
		}),
		Output: mapred.NullOutput{},
	}
}

// TestRunBatchDisjointDatasetsRunSolo checks grouping: jobs over different
// datasets cannot share cursors and must fall back to the solo path with
// full solo accounting (physical I/O on their own Results).
func TestRunBatchDisjointDatasetsRunSolo(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadBatchDataset(t, fs, "/d1", 400, 4)
	loadBatchDataset(t, fs, "/d2", 400, 4)

	br, err := mapred.RunBatch(fs, countJob("/d1", nil), countJob("/d2", nil))
	if err != nil {
		t.Fatal(err)
	}
	if br.SharedTasks != 0 || br.Groups != 0 {
		t.Fatalf("disjoint datasets were co-scheduled: %+v", br)
	}
	for i, res := range br.Results {
		if res.Total.IO.TotalChargedBytes() == 0 {
			t.Fatalf("solo-fallback job %d has no physical accounting", i)
		}
	}
}

// TestRunBatchDisjointPredicatesNoSharing checks that jobs over the same
// dataset whose surviving split sets do not intersect produce only
// single-member tasks: co-scheduling never forces unrelated scans together.
func TestRunBatchDisjointPredicatesNoSharing(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadBatchDataset(t, fs, "/d", 800, 8)

	br, err := mapred.RunBatch(fs,
		countJob("/d", scan.Le("x", 200)),
		countJob("/d", scan.Gt("x", 800)))
	if err != nil {
		t.Fatal(err)
	}
	if br.SharedTasks != 0 {
		t.Fatalf("disjoint surviving split sets produced %d shared tasks", br.SharedTasks)
	}
	if br.Shared.SharedReads != 0 || br.Shared.BytesSaved != 0 {
		t.Fatalf("sharing counters on disjoint scans: %+v", br.Shared)
	}
}

// TestRunBatchDuplicatePathsRunSolo checks that a job listing a dataset
// twice (a solo run scans it twice) is never co-scheduled: shared planning
// keys member sets by directory and cannot represent multiplicity.
func TestRunBatchDuplicatePathsRunSolo(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadBatchDataset(t, fs, "/d", 400, 4)

	dup := countJob("/d", nil)
	dup.Conf.InputPaths = []string{"/d", "/d"}
	br, err := mapred.RunBatch(fs, dup, countJob("/d", nil))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := mapred.Run(fs, dup)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := br.Results[0].Total.RecordsProcessed, solo.Total.RecordsProcessed; got != want {
		t.Fatalf("duplicate-path job processed %d records batched, %d solo", got, want)
	}
	if br.SharedTasks != 0 {
		t.Fatalf("duplicate-path job was co-scheduled: %+v", br)
	}
}

// TestRunBatchDifferentFormatConfigsNotMerged checks that jobs whose scans
// size tasks differently (and so plan differently) are not driven by one
// another's plan.
func TestRunBatchDifferentFormatConfigsNotMerged(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadBatchDataset(t, fs, "/d", 800, 8)

	a := countJob("/d", scan.Le("x", 500))
	b := countJob("/d", scan.Le("x", 500))
	b.Conf.Scan.DirsPerSplit = 2
	br, err := mapred.RunBatch(fs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if br.SharedTasks != 0 {
		t.Fatalf("differently configured formats were co-scheduled: %+v", br)
	}
	soloB, err := mapred.Run(fs, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(br.Results[1].MapTasks), len(soloB.MapTasks); got != want {
		t.Fatalf("job with DirsPerSplit=2 ran %d tasks batched, %d solo", got, want)
	}
}

// TestBatchChargesOnce is the headline property: N overlapping jobs batched
// charge roughly one scan's bytes, not N.
func TestBatchChargesOnce(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	loadBatchDataset(t, fs, "/d", 2000, 8)

	jobs := func() []*mapred.Job {
		var out []*mapred.Job
		for j := 0; j < 4; j++ {
			out = append(out, countJob("/d", scan.Le("x", int64(400+10*j))))
		}
		return out
	}

	var soloCharged int64
	for _, job := range jobs() {
		res, err := mapred.Run(fs, job)
		if err != nil {
			t.Fatal(err)
		}
		soloCharged += res.Total.IO.TotalChargedBytes()
	}
	br, err := mapred.RunBatch(fs, jobs()...)
	if err != nil {
		t.Fatal(err)
	}
	batchCharged := br.Work().IO.TotalChargedBytes()
	if batchCharged <= 0 || soloCharged <= 0 {
		t.Fatalf("degenerate measurement: solo %d, batch %d", soloCharged, batchCharged)
	}
	if ratio := float64(soloCharged) / float64(batchCharged); ratio < 2 {
		t.Fatalf("4 overlapping jobs: solo charged %d, batch %d (%.2fx, want >= 2x)",
			soloCharged, batchCharged, ratio)
	}
}
