package mapred

import (
	"colmr/internal/catalog"
	"colmr/internal/hdfs"
	"colmr/internal/vec"
)

// Cross-batch scan caching: a long-lived Session over the engine.
//
// RunBatch shares cursors inside one batch; a Session keeps sharing across
// batches. It owns an LRU-bounded hdfs.ScanCache of column-file regions
// keyed by (file, generation, region), attached to every job it runs, so a
// steady stream of RunBatch rounds — one job each, no co-submission
// required — serves repeated reads of hot columns from the session instead
// of the disks, the way PowerDrill keeps decoded column chunks resident
// between a user's successive queries.
//
// Caching is an accounting optimization, never a semantics change: with
// CacheBytes 0 a Session is byte-for-byte mapred.RunBatch (the session
// property test enforces it), and with a warm cache only the local/remote
// byte charges shrink — hits are visible in sim.TaskStats.CacheHits and
// BytesFromCache. Staleness is impossible by construction: cache keys carry
// the file generation the namenode assigned at creation, so reloading a
// dataset (new generations) orphans the old entries, and AddColumn — new
// files alongside untouched ones — invalidates exactly nothing.

// SessionOptions configures a Session.
type SessionOptions struct {
	// CacheBytes bounds the cross-batch scan cache. 0 disables caching,
	// making the Session's rounds exactly mapred.RunBatch.
	CacheBytes int64
	// VecCacheBytes bounds the decoded-vector cache attached to the
	// session's vectorized scans. 0 disables vector caching: batches are
	// still evaluated vectorized, but every round re-decodes. Like the
	// scan cache it is an accounting optimization only — outputs are
	// identical with any budget.
	VecCacheBytes int64
}

// Session is the long-lived query front end: the batch engine over one
// filesystem plus a cross-batch scan cache. Each RunBatch is a round;
// successive rounds reuse the regions earlier rounds charged. RunBatch and
// Run are safe for concurrent use on one session (the scan server runs
// several sealed batches at once): the caches are goroutine-safe, and
// attaching them touches only each job's own conf. Metadata is not the
// session's: every job over the filesystem plans through its one catalog
// (catalog.Of).
type Session struct {
	fs     *hdfs.FileSystem
	cache  *hdfs.ScanCache
	vcache *vec.Cache
}

// NewSession returns a session over the filesystem.
func NewSession(fs *hdfs.FileSystem, opts SessionOptions) *Session {
	return &Session{
		fs:     fs,
		cache:  hdfs.NewScanCache(opts.CacheBytes),
		vcache: vec.New(opts.VecCacheBytes),
	}
}

// attach hands the session's runtime state to a job about to run.
func (s *Session) attach(job *Job) {
	job.Conf.Cache = s.cache
	job.Conf.VecCache = s.vcache
}

// FS returns the filesystem the session runs over, for callers (like the
// scan server's EXPLAIN path) that plan against the same data it will scan.
func (s *Session) FS() *hdfs.FileSystem { return s.fs }

// RunBatch executes the jobs as one cache-attached batch.
func (s *Session) RunBatch(jobs ...*Job) (*BatchResult, error) {
	for _, job := range jobs {
		s.attach(job)
	}
	return runBatch(s.fs, jobs, batchJobErr)
}

// Run executes a single job through the session — a round of one,
// reusing (and warming) the cache like any other round.
func (s *Session) Run(job *Job) (*Result, error) {
	s.attach(job)
	return Run(s.fs, job)
}

// Invalidate drops the cached regions, vectors and the filesystem's
// catalogued metadata of the file or dataset at prefix. Generations already
// make stale hits impossible; Invalidate releases the budgets eagerly when a
// dataset is known dead (e.g. after RemoveAll).
func (s *Session) Invalidate(prefix string) {
	s.cache.Invalidate(prefix)
	s.vcache.Invalidate(prefix)
	catalog.Of(s.fs).Invalidate(prefix)
}

// VecCacheUsage reports the vector cache's resident bytes and vector count.
func (s *Session) VecCacheUsage() (bytes int64, vectors int) {
	return s.vcache.Used(), s.vcache.Vectors()
}

// CacheUsage reports the cache's resident bytes and region count.
func (s *Session) CacheUsage() (bytes int64, regions int) {
	return s.cache.Used(), s.cache.Regions()
}
