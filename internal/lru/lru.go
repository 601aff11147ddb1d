// Package lru is the one residency policy of the caches that outlive a job
// — hdfs.ScanCache's charged byte regions, vec.Cache's decoded vectors and
// catalog.Catalog's parsed metadata: a budget-bounded map that drops its
// least recently used entries first and drops a dead file or directory tree
// on request. What an entry is, what it costs against the budget and when a
// resident entry still answers stay with each cache.
package lru

import (
	"container/list"
	"strings"
	"sync"
)

// Cache maps keys to values whose sizes, as the caller counts them, sum to
// at most Budget. It is safe for concurrent use; values are handed out by
// copy, so a value that points at shared data must be treated read-only.
type Cache[K comparable, V any] struct {
	budget  int64
	path    func(K) string
	mu      sync.Mutex
	used    int64
	ll      list.List // of *item[K, V]; front = most recently used
	entries map[K]*list.Element
}

type item[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns an empty cache bounded to budget. path names the file a key
// belongs to, for Invalidate.
func New[K comparable, V any](budget int64, path func(K) string) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, path: path, entries: make(map[K]*list.Element)}
}

// Get returns k's value and marks it most recently used. It unlocks
// without defer, which made a hit ~15 % slower on every cached read.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	el, ok := c.entries[k]
	if ok {
		c.ll.MoveToFront(el)
		v = el.Value.(*item[K, V]).val
	}
	c.mu.Unlock()
	return v, ok
}

// Add makes v, costing size, k's value — replacing the one k had — and
// marks it most recently used, then evicts from the least recently used end
// until the budget holds. An entry larger than the whole budget is refused:
// Add reports false and leaves the cache as it was.
func (c *Cache[K, V]) Add(k K, v V, size int64) bool {
	if size > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		it := el.Value.(*item[K, V])
		c.used += size - it.size
		it.val, it.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[k] = c.ll.PushFront(&item[K, V]{key: k, val: v, size: size})
		c.used += size
	}
	for c.used > c.budget {
		c.removeLocked(c.ll.Back())
	}
	return true
}

// Invalidate drops every entry of the file or directory tree at prefix: the
// path itself and anything under prefix+"/", never a sibling such as /a/bc
// for /a/b.
func (c *Cache[K, V]) Invalidate(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		p := c.path(el.Value.(*item[K, V]).key)
		if strings.HasPrefix(p, prefix) && (len(p) == len(prefix) || p[len(prefix)] == '/') {
			c.removeLocked(el)
		}
		el = next
	}
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	it := c.ll.Remove(el).(*item[K, V])
	delete(c.entries, it.key)
	c.used -= it.size
}

// Used returns the summed size of the resident entries.
func (c *Cache[K, V]) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Budget returns the bound on Used.
func (c *Cache[K, V]) Budget() int64 { return c.budget }
