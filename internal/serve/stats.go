package serve

import (
	"colmr/internal/sim"
)

// Report is the serving-side account of one query, attached to its ticket
// at completion.
//
// Physical work a shared batch charged once (BatchResult.Shared) is
// attributed to members by even split — shared bytes divided by the member
// count, the remainder going to the earliest-admitted members — so per-query
// and per-tenant charges always sum exactly to what the server charged.
// Logical counters (Matched, pruning) are the query's own, solo-exact.
type Report struct {
	Tenant string `json:"tenant"`
	// BatchQueries is how many queries the batch served; >1 means this
	// query shared its scan.
	BatchQueries int `json:"batchQueries"`
	// ArriveAt and SealAt bound the admission window wait in modeled
	// seconds; RunSeconds is the batch's modeled service time. Queue-aware
	// percentiles (including time waiting for a batch slot) are on
	// Server.Stats.
	ArriveAt   float64 `json:"arriveAt"`
	SealAt     float64 `json:"sealAt"`
	RunSeconds float64 `json:"runSeconds"`
	Charges
}

// Charges is what a query is charged: the records it matched and the work
// attributed to it. A served query's charges are computed once, in resolve,
// and summed from there into its tenant's and the server's.
type Charges struct {
	// Matched is the records delivered to the query's map function.
	Matched int64 `json:"matched"`
	// ChargedBytes is the query's own physical traffic plus its share of
	// the batch's shared traffic.
	ChargedBytes   int64 `json:"chargedBytes"`
	CacheHits      int64 `json:"cacheHits"`
	BytesFromCache int64 `json:"bytesFromCache"`
	SharedReads    int64 `json:"sharedReads"`
	BytesSaved     int64 `json:"bytesSaved"`
}

// chargesOf reads the chargeable counters of st.
func chargesOf(st sim.TaskStats) Charges {
	return Charges{Matched: st.RecordsProcessed, ChargedBytes: st.IO.TotalChargedBytes(),
		CacheHits: st.CacheHits, BytesFromCache: st.BytesFromCache,
		SharedReads: st.SharedReads, BytesSaved: st.BytesSaved}
}

func (c *Charges) counters() [6]*int64 {
	return [...]*int64{&c.Matched, &c.ChargedBytes, &c.CacheHits, &c.BytesFromCache,
		&c.SharedReads, &c.BytesSaved}
}

func (c *Charges) add(o Charges) {
	dst, src := c.counters(), o.counters()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// share is member i's even share of c among n members: each counter's
// floor share, plus one unit of its remainder if i is early enough. The n
// shares always sum exactly to c.
func (c Charges) share(n, i int) Charges {
	for _, p := range c.counters() {
		rem := *p % int64(n)
		*p /= int64(n)
		if int64(i) < rem {
			*p++
		}
	}
	return c
}

// TenantStats aggregates one tenant's served queries.
type TenantStats struct {
	Queries int64 `json:"queries"`
	Failed  int64 `json:"failed"`
	Charges
	// Wait and Latency summarize the tenant's modeled admission-to-start
	// and admission-to-finish times (completed batches whose predecessors
	// have also completed; final after Drain).
	Wait    sim.LatencySummary `json:"wait"`
	Latency sim.LatencySummary `json:"latency"`
}

// Stats is a live snapshot of the server.
type Stats struct {
	// Queries is arrivals accepted; Completed of them have been served,
	// Failed of them by a batch error.
	Queries   int64 `json:"queries"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Batches is completed batches; SharedBatches of them served more than
	// one query.
	Batches       int64 `json:"batches"`
	SharedBatches int64 `json:"sharedBatches"`
	// Live gauges: quota-waiting queries, queries in the open window,
	// sealed batches awaiting a slot, batches running.
	Queued         int  `json:"queued"`
	Forming        int  `json:"forming"`
	WaitingBatches int  `json:"waitingBatches"`
	RunningBatches int  `json:"runningBatches"`
	Draining       bool `json:"draining"`

	// Work totals across completed batches (shared physical work counted
	// once). Per-tenant attributions sum exactly to these.
	ChargedBytes   int64 `json:"chargedBytes"`
	BytesSaved     int64 `json:"bytesSaved"`
	SharedReads    int64 `json:"sharedReads"`
	CacheHits      int64 `json:"cacheHits"`
	BytesFromCache int64 `json:"bytesFromCache"`
	RecordsMatched int64 `json:"recordsMatched"`

	// Modeled latency over served queries: Wait is arrival → batch start
	// (window + queueing), Run is batch service time, Latency is arrival →
	// batch finish. Computed on the MaxBatches-server timeline in seal
	// order, so the numbers cover the completed prefix and are final after
	// Drain.
	Wait    sim.LatencySummary `json:"wait"`
	Run     sim.LatencySummary `json:"run"`
	Latency sim.LatencySummary `json:"latency"`

	Tenants map[string]TenantStats `json:"tenants"`
}

// batchRecord is the completed-batch log entry the modeled timeline is
// computed from, in seal order.
type batchRecord struct {
	sealAt     float64
	runSeconds float64
	done       bool
	members    []memberSample
}

type memberSample struct {
	tenant   string
	arriveAt float64
}

// recordSeal logs a sealed batch so the timeline knows it exists even
// before it completes (the latency prefix stops at the first unfinished
// seal), and gives the batch its place in seal order.
func (s *Server) recordSeal(b *batch) {
	rec := &batchRecord{sealAt: b.sealAt, members: make([]memberSample, len(b.members))}
	for i, q := range b.members {
		rec.members[i] = memberSample{tenant: q.tenant, arriveAt: q.arriveAt}
	}
	s.mu.Lock()
	b.seq = len(s.records)
	s.records = append(s.records, rec)
	s.mu.Unlock()
}

// resolve publishes a completed batch: per-query reports and tickets,
// tenant rollups, and server totals. Called from the dispatcher, so tenant
// accounting needs no internal ordering decisions.
func (s *Server) resolve(b *batch) {
	n := len(b.members)
	var shared Charges
	if b.br != nil {
		shared = chargesOf(b.br.Shared)
	}

	s.mu.Lock()
	rec := s.records[b.seq]
	rec.done = true
	rec.runSeconds = b.runSeconds
	s.totals.batches++
	if n > 1 {
		s.totals.sharedBatches++
	}
	for i, q := range b.members {
		t := s.tenants[q.tenant]
		if t == nil {
			t = &TenantStats{}
			s.tenants[q.tenant] = t
		}
		t.Queries++
		s.totals.completed++
		rep := Report{
			Tenant:       q.tenant,
			BatchQueries: n,
			ArriveAt:     q.arriveAt,
			SealAt:       b.sealAt,
			RunSeconds:   b.runSeconds,
		}
		if b.err != nil {
			t.Failed++
			s.totals.failed++
		} else {
			// The member's own work, plus its even share of the shared.
			own := b.br.Results[i].Total
			own.Add(b.br.Results[i].ReduceStats)
			rep.Charges = chargesOf(own)
			rep.Charges.add(shared.share(n, i))
			t.Charges.add(rep.Charges)
			s.totals.add(rep.Charges)
		}
		q.ticket.report = rep
	}
	s.mu.Unlock()

	// Resolve tickets outside the stats lock; waiters may call Stats.
	for i, q := range b.members {
		if b.err != nil {
			q.ticket.err = b.err
		} else {
			q.ticket.res = b.br.Results[i]
		}
		close(q.ticket.done)
	}
}

// Stats snapshots the server: counters, gauges, per-tenant rollups, and the
// modeled latency distributions. Latencies replay the completed prefix of
// the seal-order timeline against MaxBatches modeled servers — greedy
// earliest-free-slot assignment — so wait includes both the admission
// window and any queueing behind earlier batches.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()

	st := Stats{
		Queries:        s.accepted,
		Completed:      s.totals.completed,
		Failed:         s.totals.failed,
		Batches:        s.totals.batches,
		SharedBatches:  s.totals.sharedBatches,
		Queued:         s.gQueued,
		Forming:        s.gForming,
		WaitingBatches: s.gWaiting,
		RunningBatches: s.gRunning,
		Draining:       s.draining.Load(),
		ChargedBytes:   s.totals.ChargedBytes,
		BytesSaved:     s.totals.BytesSaved,
		SharedReads:    s.totals.SharedReads,
		CacheHits:      s.totals.CacheHits,
		BytesFromCache: s.totals.BytesFromCache,
		RecordsMatched: s.totals.Matched,
		Tenants:        make(map[string]TenantStats, len(s.tenants)),
	}

	var wait, run, latency sim.Latency
	perTenant := make(map[string]*[2]sim.Latency) // wait, latency
	slotFree := make([]float64, s.opts.MaxBatches)
	for _, rec := range s.records {
		if !rec.done {
			break // timeline needs every predecessor's duration
		}
		slot := 0
		for k := 1; k < len(slotFree); k++ {
			if slotFree[k] < slotFree[slot] {
				slot = k
			}
		}
		start := rec.sealAt
		if slotFree[slot] > start {
			start = slotFree[slot]
		}
		finish := start + rec.runSeconds
		slotFree[slot] = finish
		for _, m := range rec.members {
			wait.Observe(start - m.arriveAt)
			run.Observe(rec.runSeconds)
			latency.Observe(finish - m.arriveAt)
			pt := perTenant[m.tenant]
			if pt == nil {
				pt = &[2]sim.Latency{}
				perTenant[m.tenant] = pt
			}
			pt[0].Observe(start - m.arriveAt)
			pt[1].Observe(finish - m.arriveAt)
		}
	}
	st.Wait = wait.Summary()
	st.Run = run.Summary()
	st.Latency = latency.Summary()

	for name, t := range s.tenants {
		out := *t
		if pt := perTenant[name]; pt != nil {
			out.Wait = pt[0].Summary()
			out.Latency = pt[1].Summary()
		}
		st.Tenants[name] = out
	}
	return st
}
