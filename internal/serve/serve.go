package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/sim"
)

// ErrDraining is returned by Enqueue once Drain or Close has begun: the
// server finishes what it holds but admits nothing new.
var ErrDraining = errors.New("serve: server is draining")

// Options configures a Server.
type Options struct {
	// Window is the sharing window in modeled seconds: an arriving query
	// holds its forming batch open for this long so compatible arrivals
	// merge into it (admission-time batching). 0 disables batching — every
	// query is sealed into a batch of one the instant it is admitted, which
	// makes the served byte accounting exactly the sequential solo runs'.
	// The window is half-open: an arrival at exactly openAt+Window starts
	// the next batch.
	Window float64
	// MaxBatches bounds the batches in flight concurrently over the
	// session; sealed batches past the bound queue FIFO. Default 2.
	MaxBatches int
	// TenantQuota is the maximum queries one tenant may have in flight
	// (forming, sealed, or running). Arrivals past the quota wait in the
	// tenant's FIFO queue and are admitted round-robin across tenants as
	// capacity frees — one tenant's burst cannot starve the others.
	// 0 means no quota.
	TenantQuota int
	// CacheBytes is the budget of the session's cross-batch scan cache
	// (mapred.SessionOptions). 0 disables caching.
	CacheBytes int64
	// Clock is the modeled-time source; nil uses WallClock().
	Clock Clock
	// Model prices batch work into modeled run seconds; nil uses
	// sim.DefaultModel().
	Model *sim.CostModel
}

// Server is a continuous-admission scan service over one long-lived
// mapred.Session: queries arrive asynchronously from many tenants, an
// admission window merges arrival overlap into shared batches, a bounded
// worker pool keeps batches in flight, and per-tenant accounting tracks who
// consumed what. Sharing is invariant: a served query returns byte-identical
// output and solo-exact logical counters versus running it alone (the
// admission-invariance property test).
type Server struct {
	opts    Options
	clock   Clock
	model   sim.CostModel
	session *mapred.Session

	events   chan event
	stopped  chan struct{}
	draining atomic.Bool

	mu       sync.Mutex
	accepted int64
	tenants  map[string]*TenantStats
	totals   totals
	records  []*batchRecord
	// live gauges, published by the dispatcher after every event
	gQueued, gForming, gWaiting, gRunning int
}

type totals struct {
	completed, failed      int64
	batches, sharedBatches int64
	Charges
}

// Ticket is the handle Enqueue returns: it resolves when the query's batch
// completes.
type Ticket struct {
	tenant string
	done   chan struct{}
	res    *mapred.Result
	err    error
	report Report
}

// Wait blocks until the query has been served and returns its result — the
// same *mapred.Result a solo Session.Run would have produced, per-job
// logical counters included.
func (t *Ticket) Wait() (*mapred.Result, error) {
	<-t.done
	return t.res, t.err
}

// Done returns a channel closed when the query has been served.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Report returns the serving-side account of the query: batch membership,
// window wait, modeled run time, and the query's attributed share of the
// batch's physical work. Valid only after Wait/Done.
func (t *Ticket) Report() Report { return t.report }

type query struct {
	tenant   string
	job      *mapred.Job
	ticket   *Ticket
	arriveAt float64
	admitAt  float64
}

type batch struct {
	seq         int
	members     []*query
	openAt      float64
	deadline    float64
	sealAt      float64
	cancelTimer func()
	br          *mapred.BatchResult
	err         error
	runSeconds  float64
}

type eventKind int

const (
	evArrive eventKind = iota
	evTick
	evFlush
	evDrain
	evDone
)

type event struct {
	kind eventKind
	at   float64
	q    *query
	b    *batch
	ack  chan struct{}
}

// New starts a server over the filesystem. The returned server is live:
// Enqueue admits immediately. Stop it with Drain (or Close).
func New(fs *hdfs.FileSystem, opts Options) *Server {
	if opts.MaxBatches < 1 {
		opts.MaxBatches = 2
	}
	if opts.Window < 0 {
		opts.Window = 0
	}
	clock := opts.Clock
	if clock == nil {
		clock = WallClock()
	}
	model := sim.DefaultModel()
	if opts.Model != nil {
		model = *opts.Model
	}
	s := &Server{
		opts:    opts,
		clock:   clock,
		model:   model,
		session: mapred.NewSession(fs, mapred.SessionOptions{CacheBytes: opts.CacheBytes}),
		events:  make(chan event, 64),
		stopped: make(chan struct{}),
		tenants: make(map[string]*TenantStats),
	}
	go s.loop()
	return s
}

// Session exposes the server's underlying session (cache usage inspection,
// Invalidate after dataset reloads).
func (s *Server) Session() *mapred.Session { return s.session }

// FS returns the filesystem the server scans, for planning (EXPLAIN)
// against the same data the queued jobs will run over.
func (s *Server) FS() *hdfs.FileSystem { return s.session.FS() }

// Model returns the server's cost model — the one its reports price scans
// with, so EXPLAIN estimates and serving reports share units.
func (s *Server) Model() sim.CostModel { return s.model }

// Committer is a streaming writer that announces manifest commits —
// structurally, ingest.Ingester. Each callback receives the committed
// generation and the directories that commit retired, and runs on the
// committing goroutine.
type Committer interface {
	OnCommit(func(gen int64, retired []string))
}

// ServeLive subscribes the server to a continuously-written dataset: when
// a commit retires directories (compaction replacing fresh partitions),
// their cached regions and vectors are dropped from the session caches.
// Correctness needs no hook — cache keys carry file generations and
// manifests are immutable, so a query racing a commit simply answers
// against the previous complete generation — this is purely keeping the
// cache working set aligned with the live layout while queries and
// ingestion run concurrently.
func (s *Server) ServeLive(src Committer) {
	src.OnCommit(func(_ int64, retired []string) {
		for _, dir := range retired {
			s.session.Invalidate(dir)
		}
	})
}

// Enqueue admits one query for the tenant. The job is validated up front
// and owned by the server from then on (its conf gains the session cache);
// results arrive through the ticket. Queries of one tenant are served in
// arrival order relative to each other.
func (s *Server) Enqueue(tenant string, job *mapred.Job) (*Ticket, error) {
	if job == nil {
		return nil, fmt.Errorf("serve: nil job")
	}
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	t := &Ticket{tenant: tenant, done: make(chan struct{})}
	q := &query{tenant: tenant, job: job, ticket: t, arriveAt: s.clock.Now()}
	select {
	case s.events <- event{kind: evArrive, at: q.arriveAt, q: q}:
		return t, nil
	case <-s.stopped:
		return nil, ErrDraining
	}
}

// Flush seals the forming admission window immediately, without waiting for
// its deadline. It returns once the seal has been processed (the batch may
// still be queued or running).
func (s *Server) Flush() {
	ack := make(chan struct{})
	select {
	case s.events <- event{kind: evFlush, at: s.clock.Now(), ack: ack}:
		select {
		case <-ack:
		case <-s.stopped:
		}
	case <-s.stopped:
	}
}

// Drain stops admission and blocks until every accepted query has been
// served: the forming window seals at once, quota-waiting queries are
// admitted (still batched together) as capacity frees, and in-flight
// batches run to completion. After Drain the server is stopped; Enqueue
// returns ErrDraining.
func (s *Server) Drain() {
	s.draining.Store(true)
	ack := make(chan struct{})
	select {
	case s.events <- event{kind: evDrain, at: s.clock.Now(), ack: ack}:
		select {
		case <-ack:
		case <-s.stopped:
		}
	case <-s.stopped:
	}
}

// Close is Drain: graceful shutdown is the only shutdown.
func (s *Server) Close() error {
	s.Drain()
	return nil
}

// Draining reports whether Drain/Close has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// loop is the dispatcher: the single goroutine that owns admission state.
// Every decision — window open/seal, round-robin admission, quota checks,
// slot dispatch — happens here in event order, which is what makes serving
// deterministic under a ManualClock: admission is a pure function of the
// arrival sequence.
func (s *Server) loop() {
	var (
		queues   = make(map[string][]*query) // quota-waiting, FIFO per tenant
		order    []string                    // tenants in first-seen order
		rr       int                         // round-robin cursor into order
		inflight = make(map[string]int)      // per-tenant queries forming/sealed/running
		forming  *batch
		runQ     []*batch
		running  int
		now      float64
		queued   int
		draining bool
		acks     []chan struct{}
	)

	seal := func(at float64) {
		b := forming
		forming = nil
		if b.cancelTimer != nil {
			b.cancelTimer()
		}
		if at > b.deadline {
			at = b.deadline // lazily observed deadlines seal at the deadline
		}
		b.sealAt = at
		s.recordSeal(b)
		runQ = append(runQ, b)
	}

	// admit moves quota-waiting queries into the forming window, round-robin
	// across tenants so concurrent bursts interleave fairly.
	admit := func(at float64) {
		for len(order) > 0 {
			var q *query
			for tries := 0; tries < len(order); tries++ {
				t := order[(rr+tries)%len(order)]
				if len(queues[t]) == 0 {
					continue
				}
				if s.opts.TenantQuota > 0 && inflight[t] >= s.opts.TenantQuota {
					continue
				}
				q = queues[t][0]
				queues[t] = queues[t][1:]
				rr = (rr + tries + 1) % len(order)
				break
			}
			if q == nil {
				return
			}
			queued--
			if forming == nil {
				forming = &batch{openAt: at, deadline: at + s.opts.Window}
				if s.opts.Window > 0 && !draining {
					b := forming
					forming.cancelTimer = s.clock.AfterFunc(b.deadline, func() {
						select {
						case s.events <- event{kind: evTick, at: b.deadline, b: b}:
						case <-s.stopped:
						}
					})
				}
			}
			q.admitAt = at
			forming.members = append(forming.members, q)
			inflight[q.tenant]++
			if s.opts.Window == 0 {
				seal(at)
			}
		}
	}

	dispatch := func() {
		for running < s.opts.MaxBatches && len(runQ) > 0 {
			b := runQ[0]
			runQ = runQ[1:]
			running++
			go s.runBatch(b)
		}
	}

	// progress runs one admission step: seal an expired window, admit what
	// quota allows, and — while draining — seal immediately rather than
	// waiting out a window no future arrival will close.
	progress := func(at float64) {
		if forming != nil && at >= forming.deadline {
			seal(forming.deadline)
		}
		admit(at)
		if draining && forming != nil {
			seal(at)
		}
		dispatch()
	}

	idle := func() bool {
		return forming == nil && running == 0 && len(runQ) == 0 && queued == 0
	}

	for ev := range s.events {
		if ev.at > now {
			now = ev.at
		}
		switch ev.kind {
		case evArrive:
			q := ev.q
			if draining {
				q.ticket.err = ErrDraining
				close(q.ticket.done)
				break
			}
			if _, seen := queues[q.tenant]; !seen {
				order = append(order, q.tenant)
			}
			queues[q.tenant] = append(queues[q.tenant], q)
			queued++
			s.mu.Lock()
			s.accepted++
			s.mu.Unlock()
			progress(now)
		case evTick:
			// A window timer; meaningful only if its batch is still forming.
			if forming == ev.b {
				seal(forming.deadline)
			}
			progress(now)
		case evFlush:
			if forming != nil {
				seal(now)
			}
			dispatch()
			close(ev.ack)
		case evDrain:
			draining = true
			acks = append(acks, ev.ack)
			progress(now)
		case evDone:
			running--
			s.resolve(ev.b)
			for _, q := range ev.b.members {
				inflight[q.tenant]--
			}
			progress(now)
		}

		s.mu.Lock()
		s.gQueued = queued
		if forming != nil {
			s.gForming = len(forming.members)
		} else {
			s.gForming = 0
		}
		s.gWaiting = len(runQ)
		s.gRunning = running
		s.mu.Unlock()

		if draining && idle() {
			for _, ack := range acks {
				close(ack)
			}
			close(s.stopped)
			return
		}
	}
}

// runBatch executes one sealed batch on the shared session and reports
// completion back to the dispatcher. Jobs run in admission order, so
// BatchResult.Results aligns with batch.members.
func (s *Server) runBatch(b *batch) {
	jobs := make([]*mapred.Job, len(b.members))
	for i, q := range b.members {
		jobs[i] = q.job
	}
	b.br, b.err = s.session.RunBatch(jobs...)
	// The batch's modeled service time prices its whole work as one
	// single-node scan; linear pricing makes a batch of one cost exactly its
	// solo run.
	if b.err == nil {
		b.runSeconds = s.model.ScanSeconds(b.br.Work())
	}
	select {
	case s.events <- event{kind: evDone, at: s.clock.Now(), b: b}:
	case <-s.stopped:
	}
}
