package serve_test

// Unit tests for the server's admission mechanics: the no-batching identity
// at Window 0, quota-bounded round-robin fairness, Flush/Drain semantics,
// and the wall-clock timer path the property test (ManualClock) never arms.

import (
	"fmt"
	"testing"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/serve"
	"colmr/internal/sim"
)

// svFixture writes a small clustered dataset at /d: "t" monotone 0..n-1 so
// split-directories cover disjoint ranges, "s" a projectable payload.
func svFixture(t testing.TB, seed int64) *hdfs.FileSystem {
	t.Helper()
	const records = 120
	fs := hdfs.New(sim.SingleNode(), seed)
	schema := serde.RecordOf("R",
		serde.Field{Name: "t", Type: serde.Long()},
		serde.Field{Name: "s", Type: serde.String()})
	w, err := core.NewWriter(fs, "/d", schema, core.LoadOptions{SplitRecords: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		rec := serde.NewRecord(schema)
		if err := rec.Set("t", int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := rec.Set("s", fmt.Sprintf("s%03d", i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// svJob is a counting scan over the fixture with an upper bound on "t".
func svJob(hi int64) *mapred.Job {
	return core.ScanDataset("/d").
		Columns("s").
		Where(scan.Le("t", hi)).
		Job(mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil }))
}

func svCharged(r *mapred.Result) int64 {
	return r.Total.IO.TotalChargedBytes() + r.ReduceStats.IO.TotalChargedBytes()
}

// Window 0 is the no-batching identity: every query seals into a batch of
// one and the server's byte accounting equals the sequential solo runs'.
func TestServeWindowZeroMatchesSolo(t *testing.T) {
	fs := svFixture(t, 1)
	bounds := []int64{20, 50, 50, 110}

	var soloCharged int64
	soloMatched := make([]int64, len(bounds))
	for i, hi := range bounds {
		res, err := mapred.Run(fs, svJob(hi))
		if err != nil {
			t.Fatal(err)
		}
		soloCharged += svCharged(res)
		soloMatched[i] = res.Total.RecordsProcessed
	}

	clock := &serve.ManualClock{}
	srv := serve.New(fs, serve.Options{Window: 0, Clock: clock})
	tickets := make([]*serve.Ticket, len(bounds))
	for i, hi := range bounds {
		var err error
		if tickets[i], err = srv.Enqueue("solo", svJob(hi)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()

	for i, ticket := range tickets {
		res, err := ticket.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Total.RecordsProcessed != soloMatched[i] {
			t.Errorf("query %d matched %d, solo %d", i, res.Total.RecordsProcessed, soloMatched[i])
		}
		if rep := ticket.Report(); rep.BatchQueries != 1 {
			t.Errorf("query %d batched with %d queries at window 0", i, rep.BatchQueries)
		}
	}
	st := srv.Stats()
	if st.Batches != int64(len(bounds)) || st.SharedBatches != 0 {
		t.Errorf("batches %d shared %d, want %d/0", st.Batches, st.SharedBatches, len(bounds))
	}
	if st.ChargedBytes != soloCharged {
		t.Errorf("served charged %d bytes, sequential solo runs charged %d", st.ChargedBytes, soloCharged)
	}
}

// A window with overlapping arrivals must charge less than the solo runs —
// and attribute the savings.
func TestServeWindowShares(t *testing.T) {
	fs := svFixture(t, 2)
	bounds := []int64{40, 60, 80}

	var soloCharged int64
	for _, hi := range bounds {
		res, err := mapred.Run(fs, svJob(hi))
		if err != nil {
			t.Fatal(err)
		}
		soloCharged += svCharged(res)
	}

	clock := &serve.ManualClock{}
	srv := serve.New(fs, serve.Options{Window: 0.1, Clock: clock})
	tickets := make([]*serve.Ticket, len(bounds))
	for i, hi := range bounds {
		var err error
		if tickets[i], err = srv.Enqueue(fmt.Sprintf("tenant%d", i), svJob(hi)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()

	for _, ticket := range tickets {
		if _, err := ticket.Wait(); err != nil {
			t.Fatal(err)
		}
		if rep := ticket.Report(); rep.BatchQueries != len(bounds) {
			t.Errorf("batch served %d queries, want %d", rep.BatchQueries, len(bounds))
		}
	}
	st := srv.Stats()
	if st.Batches != 1 || st.SharedBatches != 1 {
		t.Errorf("batches %d shared %d, want 1/1", st.Batches, st.SharedBatches)
	}
	if st.ChargedBytes >= soloCharged {
		t.Errorf("shared batch charged %d bytes, solo runs %d — sharing saved nothing", st.ChargedBytes, soloCharged)
	}
	if st.SharedReads == 0 || st.BytesSaved == 0 {
		t.Errorf("sharedReads %d bytesSaved %d, want both > 0", st.SharedReads, st.BytesSaved)
	}
}

// Quota fairness: tenant A's burst of 4 and tenant B's 2 with TenantQuota 1
// and one batch slot must interleave round-robin — {A,B}, {A,B}, {A}, {A} —
// instead of serving A's whole burst first.
func TestServeQuotaRoundRobin(t *testing.T) {
	fs := svFixture(t, 3)
	clock := &serve.ManualClock{}
	srv := serve.New(fs, serve.Options{
		Window:      0.5,
		MaxBatches:  1,
		TenantQuota: 1,
		Clock:       clock,
	})

	var tickets []*serve.Ticket
	enq := func(tenant string, hi int64) {
		tk, err := srv.Enqueue(tenant, svJob(hi))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	enq("a", 30)
	enq("a", 50)
	enq("a", 70)
	enq("a", 90)
	enq("b", 40)
	enq("b", 60)
	srv.Drain()

	wantBatchSize := map[int]int{0: 2, 1: 2, 2: 1, 3: 1, 4: 2, 5: 2}
	for i, ticket := range tickets {
		if _, err := ticket.Wait(); err != nil {
			t.Fatal(err)
		}
		if rep := ticket.Report(); rep.BatchQueries != wantBatchSize[i] {
			t.Errorf("query %d served in a batch of %d, want %d", i, rep.BatchQueries, wantBatchSize[i])
		}
	}
	st := srv.Stats()
	if st.Batches != 4 || st.SharedBatches != 2 {
		t.Errorf("batches %d shared %d, want 4/2", st.Batches, st.SharedBatches)
	}
	if a := st.Tenants["a"]; a.Queries != 4 {
		t.Errorf("tenant a served %d queries, want 4", a.Queries)
	}
	if b := st.Tenants["b"]; b.Queries != 2 {
		t.Errorf("tenant b served %d queries, want 2", b.Queries)
	}
}

// Flush seals a window that would otherwise stay open (huge window, manual
// clock); Drain stops admission and Enqueue starts failing fast.
func TestServeFlushAndDrain(t *testing.T) {
	fs := svFixture(t, 4)
	clock := &serve.ManualClock{}
	srv := serve.New(fs, serve.Options{Window: 100, Clock: clock})

	t1, err := srv.Enqueue("x", svJob(30))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := srv.Enqueue("y", svJob(60))
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
	if rep := t1.Report(); rep.BatchQueries != 2 {
		t.Errorf("flushed batch served %d queries, want 2", rep.BatchQueries)
	}

	srv.Drain()
	if !srv.Draining() {
		t.Error("Draining() false after Drain")
	}
	if _, err := srv.Enqueue("x", svJob(30)); err != serve.ErrDraining {
		t.Errorf("Enqueue after Drain: %v, want ErrDraining", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Drain: %v", err)
	}
}

func TestServeEnqueueRejectsBadJobs(t *testing.T) {
	fs := svFixture(t, 5)
	srv := serve.New(fs, serve.Options{})
	defer srv.Close()
	if _, err := srv.Enqueue("x", nil); err == nil {
		t.Error("Enqueue(nil) succeeded")
	}
	if _, err := srv.Enqueue("x", &mapred.Job{}); err == nil {
		t.Error("Enqueue of an invalid job succeeded")
	}
}

// The wall-clock path: with a real (tiny) window and no Flush, the window
// timer itself must seal the batch and resolve the tickets.
func TestServeWallClockTimerSeals(t *testing.T) {
	fs := svFixture(t, 6)
	srv := serve.New(fs, serve.Options{Window: 0.005})
	defer srv.Close()

	t1, err := srv.Enqueue("x", svJob(30))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := srv.Enqueue("y", svJob(60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
	if rep := t1.Report(); rep.BatchQueries < 1 {
		t.Errorf("bad report after timer seal: %+v", rep)
	}
}
