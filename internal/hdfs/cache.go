package hdfs

import "colmr/internal/lru"

// ScanCache is an LRU-bounded cache of column-file byte regions, the storage
// side of a long-lived mapred.Session: regions a scan charged once stay
// resident across batches, so a steady stream of jobs over the same datasets
// re-reads hot columns from memory instead of the disk subsystem — the
// serving-style reuse PowerDrill builds its interactivity on ("Processing a
// Trillion Cells per Mouse Click", VLDB 2012).
//
// Granularity and keying. Entries are whole transfer units — the unit the
// filesystem already charges I/O in — keyed by (file path, file generation,
// unit offset). The generation is assigned by the namenode at file creation,
// so a dataset rebuilt under the same paths (reload, Remove+Create) can
// never serve stale bytes: its new files carry new generations and the old
// entries age out of the LRU. AddColumn needs no invalidation at all — it
// writes new files, and the untouched columns' cached regions remain
// exactly valid.
//
// The cache stores no payload bytes. The simulated datanodes already hold
// every block in memory; what a real cache would change — which reads reach
// the disks — is precisely what the accounting model measures, so a hit
// suppresses the region's local/remote byte charge and is counted in
// sim.TaskStats.CacheHits / BytesFromCache instead. Seek accounting is left
// untouched: the conservative model charges cursor movement whether or not
// the bytes came from cache.
//
// The policy — budget, eviction, prefix invalidation — is internal/lru's,
// shared with vec.Cache and catalog.Catalog. ScanCache is safe for
// concurrent use by the engine's map-task workers. A nil *ScanCache is
// valid and disables caching everywhere it is consulted.
type ScanCache struct {
	lru *lru.Cache[regionKey, struct{}]
}

// regionKey identifies one cached transfer unit of one file generation.
type regionKey struct {
	path     string
	gen, off int64
}

// NewScanCache returns a cache bounded to budget bytes. A budget <= 0
// returns nil: caching disabled, the zero-cost path everywhere.
func NewScanCache(budget int64) *ScanCache {
	if budget <= 0 {
		return nil
	}
	return &ScanCache{lru.New[regionKey, struct{}](budget, func(k regionKey) string { return k.path })}
}

// lookup reports whether the region is resident, marking it most recently
// used when it is.
func (c *ScanCache) lookup(key regionKey) bool {
	if c == nil {
		return false
	}
	_, ok := c.lru.Get(key)
	return ok
}

// admit inserts a region of size bytes (the final unit of a file may be
// short), evicting least-recently-used regions until the budget holds. A
// region larger than the whole budget is not admitted.
func (c *ScanCache) admit(key regionKey, size int64) {
	if c != nil && size > 0 {
		c.lru.Add(key, struct{}{}, size)
	}
}

// Invalidate drops every cached region of the file or dataset at prefix
// (the path itself, or anything under it). File generations already protect
// against stale reads; Invalidate exists to release the budget eagerly when
// a dataset is known dead.
func (c *ScanCache) Invalidate(prefix string) {
	if c != nil {
		c.lru.Invalidate(prefix)
	}
}

// Used returns the resident bytes.
func (c *ScanCache) Used() int64 {
	if c == nil {
		return 0
	}
	return c.lru.Used()
}

// Regions returns the number of resident regions.
func (c *ScanCache) Regions() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// Budget returns the configured bound in bytes.
func (c *ScanCache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.lru.Budget()
}
