package mapred

import (
	"colmr/internal/catalog"
	"colmr/internal/hdfs"
	"colmr/internal/vec"
)

// Cross-batch scan caching: the Engine promoted to a long-lived Session.
//
// RunBatch shares cursors inside one co-submission barrier; a Session keeps
// sharing across barriers. It owns an LRU-bounded hdfs.ScanCache of
// column-file regions keyed by (file, generation, region), attached to
// every job it runs, so a steady stream of Submit/Wait rounds — no
// co-submission required — serves repeated reads of hot columns from the
// session instead of the disks, the way PowerDrill keeps decoded column
// chunks resident between a user's successive queries.
//
// Caching is an accounting optimization, never a semantics change: with
// CacheBytes 0 a Session is byte-for-byte the Engine (the session property
// test enforces it), and with a warm cache only the local/remote byte
// charges shrink — hits are visible in sim.TaskStats.CacheHits and
// BytesFromCache. Staleness is impossible by construction: cache keys carry
// the file generation the namenode assigned at creation, so reloading a
// dataset (new generations) orphans the old entries, and AddColumn — new
// files alongside untouched ones — invalidates exactly nothing.

// SessionOptions configures a Session.
type SessionOptions struct {
	// CacheBytes bounds the cross-batch scan cache. 0 disables caching,
	// making the Session behave exactly like an Engine.
	CacheBytes int64
	// VecCacheBytes bounds the decoded-vector cache attached to the
	// session's vectorized scans. 0 disables vector caching: batches are
	// still evaluated vectorized, but every round re-decodes. Like the
	// scan cache it is an accounting optimization only — outputs are
	// identical with any budget.
	VecCacheBytes int64
}

// Session is the long-lived query front end: an Engine plus a cross-batch
// scan cache. Submit queues jobs, Wait runs a round; successive rounds
// reuse the regions earlier rounds charged.
type Session struct {
	Engine
	cache   *hdfs.ScanCache
	vcache  *vec.Cache
	catalog *catalog.Catalog
}

// NewSession returns a session over the filesystem.
func NewSession(fs *hdfs.FileSystem, opts SessionOptions) *Session {
	return &Session{
		Engine:  Engine{fs: fs},
		cache:   hdfs.NewScanCache(opts.CacheBytes),
		vcache:  vec.New(opts.VecCacheBytes),
		catalog: catalog.New(fs),
	}
}

// attach hands the session's runtime state to a job about to run.
func (s *Session) attach(job *Job) {
	job.Conf.Cache = s.cache
	job.Conf.VecCache = s.vcache
	job.Conf.Catalog = s.catalog
}

// Submit queues a job for the next Wait, attaching the session caches.
// Like Engine.Submit it is goroutine-safe: the cache attachment touches
// only the submitted job's own conf, so concurrent submitters of distinct
// jobs never share mutable state (one job must not be submitted twice
// concurrently — it is owned by the engine once handed over).
func (s *Session) Submit(job *Job) *PendingJob {
	s.attach(job)
	return s.Engine.Submit(job)
}

// RunBatch executes the jobs as one cache-attached batch.
func (s *Session) RunBatch(jobs ...*Job) (*BatchResult, error) {
	for _, job := range jobs {
		s.attach(job)
	}
	return s.Engine.RunBatch(jobs...)
}

// Run executes a single job through the session — one Submit/Wait round of
// one, reusing (and warming) the cache like any other round.
func (s *Session) Run(job *Job) (*Result, error) {
	s.attach(job)
	return Run(s.fs, job)
}

// Invalidate drops the cached regions, vectors and catalogued metadata of
// the file or dataset at prefix. Generations already make stale hits
// impossible; Invalidate releases the budgets eagerly when a dataset is
// known dead (e.g. after RemoveAll).
func (s *Session) Invalidate(prefix string) {
	s.cache.Invalidate(prefix)
	s.vcache.Invalidate(prefix)
	s.catalog.Invalidate(prefix)
}

// Catalog returns the session's metadata catalog, for callers that plan
// outside a run against the data the session scans (the scan server's
// EXPLAIN) and for inspection.
func (s *Session) Catalog() *catalog.Catalog { return s.catalog }

// VecCacheUsage reports the vector cache's resident bytes and vector count.
func (s *Session) VecCacheUsage() (bytes int64, vectors int) {
	return s.vcache.Used(), s.vcache.Vectors()
}

// CacheUsage reports the cache's resident bytes and region count.
func (s *Session) CacheUsage() (bytes int64, regions int) {
	return s.cache.Used(), s.cache.Regions()
}
