package core

import (
	"sync/atomic"
	"testing"

	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// TestWrappersMatchBuilder: the deprecated Set* wrappers must produce a
// ScanSpec identical to the fluent builder's — they are the same API with
// different spelling.
func TestWrappersMatchBuilder(t *testing.T) {
	pred := scan.And(scan.HasPrefix("url", "http://www.ibm.com"), scan.Gt("fetchTime", int64(42)))

	built := ScanDataset("/data/crawl").
		Columns("url", "fetchTime").
		Where(pred).
		Lazy(true).
		Elide(false).
		Bloom(false).
		DirsPerSplit(AutoDirsPerSplit).
		Conf()

	wrapped := mapred.JobConf{InputPaths: []string{"/data/crawl"}}
	SetColumns(&wrapped, "url", "fetchTime")
	SetLazy(&wrapped, true)
	scan.SetPredicate(&wrapped, pred)
	scan.SetElision(&wrapped, false)
	scan.SetBloom(&wrapped, false)
	wrapped.ScanSpec().DirsPerSplit = AutoDirsPerSplit

	if !wrapped.Scan.Equal(built.Scan) {
		t.Errorf("wrapper spec %+v != builder spec %+v", wrapped.Scan, built.Scan)
	}
	if len(wrapped.Props) != 0 {
		t.Errorf("wrappers left props behind: %v", wrapped.Props)
	}

	// Defaults agree too.
	if !ScanDataset("/d").Conf().Scan.Equal(&scan.Spec{}) {
		t.Error("builder default spec is not the zero spec")
	}
}

// TestWrappersClearProps: clearing a setting must delete its legacy prop
// rather than leaving an empty-string value to confuse conf diffing — and
// the typed spec must agree.
func TestWrappersClearProps(t *testing.T) {
	conf := mapred.JobConf{}
	// Simulate a conf that came in with serialized props.
	conf.Set(scan.PredicateProp, "x <= 5")
	conf.Set(scan.ElideProp, "false")
	conf.Set(ColumnsProp, "a,b")
	conf.Set(LazyProp, "true")

	scan.SetPredicate(&conf, nil)
	scan.SetElision(&conf, true)
	SetColumns(&conf)
	SetLazy(&conf, false)

	if len(conf.Props) != 0 {
		t.Errorf("cleared settings left props behind: %v", conf.Props)
	}
	if !conf.Scan.Equal(&scan.Spec{}) {
		t.Errorf("cleared conf's spec is not the zero spec: %+v", conf.Scan)
	}
}

// TestLegacyPropsResolve: a specless conf carrying only serialized props —
// the colscan -where style of input — must resolve to the same spec the
// wrappers build.
func TestLegacyPropsResolve(t *testing.T) {
	props := mapred.JobConf{InputPaths: []string{"/d"}}
	props.Set(ColumnsProp, "url, fetchTime")
	props.Set(LazyProp, "true")
	props.Set(scan.PredicateProp, `prefix(url, "http://a") && fetchTime > 42`)
	props.Set(scan.ElideProp, "false")

	got, err := resolveSpec(&props)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := scan.Parse(`prefix(url, "http://a") && fetchTime > 42`)
	if err != nil {
		t.Fatal(err)
	}
	want := scan.Spec{Columns: []string{"url", "fetchTime"}, Predicate: pred, Lazy: true, NoElide: true}
	if !got.Equal(&want) {
		t.Errorf("legacy props resolved to %+v, want %+v", got, want)
	}

	// A typed field beats its prop; fields the typed API set through the
	// wrappers also clear their props, so nothing lingers to disagree.
	SetColumns(&props, "url")
	scan.SetPredicate(&props, nil)
	SetLazy(&props, false)
	scan.SetElision(&props, true)
	got, err = resolveSpec(&props)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lazy || got.NoElide || len(got.Columns) != 1 || got.Predicate != nil {
		t.Errorf("wrapper-set fields did not win over props: %+v", got)
	}
}

// TestWrapperKeepsOtherProps: touching one setting through the typed API
// must not discard settings that arrived as serialized props — the
// conf-string predicate survives a SetLazy call.
func TestWrapperKeepsOtherProps(t *testing.T) {
	conf := mapred.JobConf{InputPaths: []string{"/d"}}
	conf.Set(scan.PredicateProp, "x <= 5")
	SetLazy(&conf, true)

	got, err := resolveSpec(&conf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Predicate == nil || got.Predicate.String() != "x <= 5" {
		t.Fatalf("prop predicate dropped after SetLazy: %+v", got)
	}
	if !got.Lazy {
		t.Fatal("typed Lazy lost")
	}

	// And the other way round: a typed predicate survives prop-side lazy.
	conf2 := mapred.JobConf{InputPaths: []string{"/d"}}
	scan.SetPredicate(&conf2, scan.Le("x", 5))
	conf2.Set(LazyProp, "true")
	got, err = resolveSpec(&conf2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Predicate == nil || !got.Lazy {
		t.Fatalf("typed predicate + prop lazy did not merge: %+v", got)
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
