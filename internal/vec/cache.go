// Package vec provides the memory layer of vectorized execution: an LRU
// cache of decoded column vectors and a buffer pool for batch scratch
// vectors.
//
// The vector cache is the decode-side analogue of hdfs.ScanCache. The scan
// cache keeps charged byte regions resident so warm rounds skip the disk;
// the vector cache keeps *decoded* vectors resident so warm rounds skip the
// decode CPU too — the session serves the batch straight from memory,
// charging neither I/O nor decode work, and credits the skip to
// sim.TaskStats.VecCacheHits / DecodeSavedValues. Entries are keyed by
// (file path, file generation, batch start record): generations are
// assigned at file creation, so a dataset rebuilt under the same paths can
// never serve stale vectors (cf. hdfs.ScanCache's keying argument). The
// LRU policy is internal/lru's; the batch-end identity is this package's.
package vec

import (
	"sync"

	"colmr/internal/lru"
	"colmr/internal/scan"
)

// Key identifies one cached vector: one column file generation's records
// [Start, end) for the batch boundary recorded with the entry.
type Key struct {
	Path  string
	Gen   int64
	Start int64
	// ID distinguishes a column's dictionary-id vector from its value
	// vector over the same records — both may be resident at once, and a
	// scan asking for one must never be handed the other.
	ID bool
}

// entry is one resident vector — a value vector or an id vector — and the
// batch end it was decoded for.
type entry struct {
	end int64
	v   *scan.Vector
	iv  *scan.IDVector
}

// Cache is an LRU-bounded vector cache, safe for concurrent use. Cached
// vectors are shared between scans and are strictly read-only; a vector
// admitted to the cache must never be mutated or pooled again. A nil
// *Cache is valid and disables caching everywhere it is consulted.
type Cache struct {
	lru *lru.Cache[Key, entry]
}

// New returns a cache bounded to budget bytes of vector storage
// (scan.Vector.MemBytes). A budget <= 0 returns nil: caching disabled.
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	return &Cache{lru.New[Key, entry](budget, func(k Key) string { return k.Path })}
}

// Get returns the cached vector for key covering records [key.Start, end),
// or nil. A resident entry with a different end is a miss: batch
// boundaries are part of the identity, so a query splitting groups
// differently never sees a short or long vector.
func (c *Cache) Get(key Key, end int64) *scan.Vector {
	return c.get(key, end).v
}

// Add admits a vector covering records [key.Start, end), evicting
// least-recently-used entries until the budget holds. The vector becomes
// shared and read-only. A vector larger than the whole budget is not
// admitted; the caller may keep using (and later reuse) it.
func (c *Cache) Add(key Key, end int64, v *scan.Vector) bool {
	if c == nil || v == nil {
		return false
	}
	return c.add(key, entry{end: end, v: v}, v.MemBytes())
}

// GetID returns the cached dictionary-id vector for key covering records
// [key.Start, end), or nil. Id vectors live under the same budget and LRU
// order as value vectors, keyed apart by Key.ID.
func (c *Cache) GetID(key Key, end int64) *scan.IDVector {
	key.ID = true
	return c.get(key, end).iv
}

// AddID admits a dictionary-id vector covering records [key.Start, end)
// under the same budget and eviction policy as Add. The vector becomes
// shared and read-only.
func (c *Cache) AddID(key Key, end int64, iv *scan.IDVector) bool {
	if c == nil || iv == nil {
		return false
	}
	key.ID = true
	return c.add(key, entry{end: end, iv: iv}, iv.MemBytes())
}

// get returns key's resident entry if it was decoded for end, else none.
func (c *Cache) get(key Key, end int64) entry {
	if c == nil {
		return entry{}
	}
	if e, ok := c.lru.Get(key); ok && e.end == end {
		return e
	}
	return entry{}
}

// add admits e, replacing the entry of a different batch boundary over the
// same start. An empty vector still costs a byte.
func (c *Cache) add(key Key, e entry, size int64) bool {
	return c.lru.Add(key, e, max(size, 1))
}

// Invalidate drops every cached vector of the file or dataset at prefix.
// Generations already protect against stale reads; Invalidate releases the
// budget eagerly when a dataset is known dead (cf. hdfs.ScanCache).
func (c *Cache) Invalidate(prefix string) {
	if c != nil {
		c.lru.Invalidate(prefix)
	}
}

// Used returns the resident vector bytes.
func (c *Cache) Used() int64 {
	if c == nil {
		return 0
	}
	return c.lru.Used()
}

// Vectors returns the number of resident vectors.
func (c *Cache) Vectors() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// Budget returns the configured bound in bytes.
func (c *Cache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.lru.Budget()
}

// Pool recycles batch scratch vectors so steady-state scans stop
// allocating: a reader takes a vector per column per batch and returns it
// when the batch retires. Vectors are pooled per representation, so a
// recycled vector's buffers are already the shape — and, once warm, the
// size — its next user fills. Vectors admitted to a Cache must NOT be
// returned — they are shared and read-only from that point on.
type Pool struct {
	p [scan.VecAny + 1]sync.Pool
}

// Get returns a reset vector of the given representation.
func (p *Pool) Get(kind scan.VecKind, capacity int) *scan.Vector {
	if v, ok := p.p[kind].Get().(*scan.Vector); ok && v != nil {
		v.Reset(kind, capacity)
		return v
	}
	return scan.NewVector(kind, capacity)
}

// Put returns a vector to the pool.
func (p *Pool) Put(v *scan.Vector) {
	if v != nil {
		p.p[v.Kind].Put(v)
	}
}
