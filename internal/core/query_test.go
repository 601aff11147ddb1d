package core

import (
	"sync/atomic"
	"testing"

	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// TestWrappersMatchBuilder: the builder and a scan.Spec literal on
// JobConf.Scan are the two spellings of one setting — what the builder
// assembles must equal the literal, and an untouched builder is the zero
// spec.
func TestWrappersMatchBuilder(t *testing.T) {
	pred := scan.And(scan.HasPrefix("url", "http://www.ibm.com"), scan.Gt("fetchTime", int64(42)))
	agg := &scan.Aggregate{Funcs: []scan.AggFunc{{Kind: scan.AggCount}}}

	built := ScanDataset("/data/crawl").
		Columns("url", "fetchTime").
		Where(pred).
		Lazy(true).
		Elide(false).
		Bloom(false).
		Vectorize(false).
		Aggregate(agg).
		DirsPerSplit(AutoDirsPerSplit).
		Conf()
	want := &scan.Spec{
		Columns:      []string{"url", "fetchTime"},
		Predicate:    pred,
		Lazy:         true,
		NoElide:      true,
		NoBloom:      true,
		NoVec:        true,
		DirsPerSplit: AutoDirsPerSplit,
		Agg:          agg,
	}
	if !built.Scan.Equal(want) {
		t.Errorf("builder spec %+v != literal %+v", built.Scan, want)
	}
	if len(built.InputPaths) != 1 || built.InputPaths[0] != "/data/crawl" {
		t.Errorf("builder input paths %v", built.InputPaths)
	}

	// Defaults agree too.
	if !ScanDataset("/d").Conf().Scan.Equal(&scan.Spec{}) {
		t.Error("builder default spec is not the zero spec")
	}
}

// TestLegacyPropsResolve: conf.Scan is the only thing resolveSpec reads.
// A conf built the colscan -where way — a parsed predicate on a hand-written
// spec — resolves to exactly that spec, a builder conf to its own spec, a
// specless conf to the zero spec, and an invalid aggregation is refused.
func TestLegacyPropsResolve(t *testing.T) {
	pred, err := scan.Parse(`prefix(url, "http://a") && fetchTime > 42`)
	if err != nil {
		t.Fatal(err)
	}
	want := scan.Spec{Columns: []string{"url", "fetchTime"}, Predicate: pred, Lazy: true, NoElide: true}
	literal := want
	conf := mapred.JobConf{InputPaths: []string{"/d"}, Scan: &literal}
	got, err := resolveSpec(&conf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&want) {
		t.Errorf("literal spec resolved to %+v, want %+v", got, want)
	}

	built := ScanDataset("/d").Columns("url", "fetchTime").Where(pred).Lazy(true).Elide(false).Conf()
	if got, err := resolveSpec(&built); err != nil || !got.Equal(&want) {
		t.Errorf("builder conf resolved to %+v, %v; want %+v", got, err, want)
	}

	if got, err := resolveSpec(&mapred.JobConf{}); err != nil || !got.Equal(&scan.Spec{}) {
		t.Errorf("a specless conf resolves to %+v, %v; want the zero spec", got, err)
	}

	bad := mapred.JobConf{Scan: &scan.Spec{Agg: &scan.Aggregate{Funcs: []scan.AggFunc{{Kind: scan.AggSum}}}}}
	if _, err := resolveSpec(&bad); err == nil {
		t.Error("a sum without a column resolved without error")
	}
}

// TestBuilderJobRuns: the builder's Job must validate and run end to end,
// and the spec must actually drive the scan (projection + predicate).
func TestBuilderJobRuns(t *testing.T) {
	fs := testFS(t, 4)
	loadDataset(t, fs, "/data/crawl", LoadOptions{SplitRecords: 128}, 512)

	var urls atomic.Int64 // map tasks run in parallel
	job := ScanDataset("/data/crawl").
		Columns("url").
		Where(scan.NotNull("url")).
		Lazy(true).
		Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			if _, err := v.(serde.Record).Get("url"); err != nil {
				return err
			}
			urls.Add(1)
			return nil
		}))
	if err := job.Validate(); err != nil {
		t.Fatalf("builder job does not validate: %v", err)
	}
	res, err := mapred.Run(fs, job)
	if err != nil {
		t.Fatal(err)
	}
	if urls.Load() != 512 || res.Total.RecordsProcessed != 512 {
		t.Errorf("scanned %d urls, %d records, want 512", urls.Load(), res.Total.RecordsProcessed)
	}
	// Projection pushdown held: only url (the single projected and filter
	// column) was opened, so the metadata/content columns cost nothing.
	if res.Total.CPU.MapBytes != 0 {
		t.Errorf("map-typed columns decoded %d bytes under a url-only projection", res.Total.CPU.MapBytes)
	}
}
