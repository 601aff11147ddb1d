package lru_test

import (
	"fmt"
	"sync"
	"testing"

	"colmr/internal/lru"
	"colmr/internal/race"
)

func pathOf(k string) string { return k }

// TestCache walks one cache through every rule: the budget, replacement in
// place, eviction from the least recently used end, refusal of an entry
// larger than the budget, and invalidation of a file or tree but never of a
// sibling sharing its name as a string prefix. Used and Len are checked
// after every step.
func TestCache(t *testing.T) {
	c := lru.New[string, int](10, pathOf)
	if c.Budget() != 10 {
		t.Fatalf("Budget = %d, want 10", c.Budget())
	}
	for i, s := range []struct {
		op   string // add, get or inv
		key  string
		val  int
		size int64
		ok   bool // add: admitted; get: hit (val is then the value)
		used int64
		len  int
	}{
		{op: "add", key: "/a/1", val: 1, size: 4, ok: true, used: 4, len: 1},
		{op: "add", key: "/a/2", val: 2, size: 4, ok: true, used: 8, len: 2},
		{op: "get", key: "/a/1", val: 1, ok: true, used: 8, len: 2}, // /a/2 is now least recent
		{op: "add", key: "/b", val: 3, size: 4, ok: true, used: 8, len: 2},
		{op: "get", key: "/a/2", used: 8, len: 2},
		{op: "get", key: "/b", val: 3, ok: true, used: 8, len: 2},
		{op: "add", key: "/a/1", val: 11, size: 2, ok: true, used: 6, len: 2}, // replaced, shrunk, most recent
		{op: "get", key: "/a/1", val: 11, ok: true, used: 6, len: 2},
		{op: "add", key: "/a/1", val: 12, size: 11, used: 6, len: 2}, // refused: the old value stays
		{op: "get", key: "/a/1", val: 11, ok: true, used: 6, len: 2},
		{op: "add", key: "/b", val: 13, size: 9, ok: true, used: 9, len: 1}, // grown past the budget: evicts /a/1, never itself
		{op: "get", key: "/a/1", used: 9, len: 1},
		{op: "add", key: "/c", val: 4, size: 10, ok: true, used: 10, len: 1}, // exactly the budget
		{op: "get", key: "/b", used: 10, len: 1},
		{op: "add", key: "/a/b", val: 5, size: 2, ok: true, used: 2, len: 1},
		{op: "add", key: "/a/bc", val: 6, size: 2, ok: true, used: 4, len: 2},
		{op: "add", key: "/a/b/x", val: 7, size: 2, ok: true, used: 6, len: 3},
		{op: "add", key: "/a", val: 8, size: 2, ok: true, used: 8, len: 4},
		{op: "inv", key: "/a/b", used: 4, len: 2}, // the path and its tree, not the sibling /a/bc
		{op: "get", key: "/a/b", used: 4, len: 2},
		{op: "get", key: "/a/b/x", used: 4, len: 2},
		{op: "get", key: "/a/bc", val: 6, ok: true, used: 4, len: 2},
		{op: "inv", key: "/a/", used: 4, len: 2}, // names no file: /a/ is not /a
		{op: "inv", key: "/a", used: 0, len: 0},
		{op: "get", key: "/a", used: 0, len: 0},
	} {
		switch s.op {
		case "add":
			if ok := c.Add(s.key, s.val, s.size); ok != s.ok {
				t.Fatalf("step %d: Add(%s, size %d) = %v, want %v", i, s.key, s.size, ok, s.ok)
			}
		case "get":
			if v, ok := c.Get(s.key); ok != s.ok || (ok && v != s.val) {
				t.Fatalf("step %d: Get(%s) = %d, %v; want %d, %v", i, s.key, v, ok, s.val, s.ok)
			}
		case "inv":
			c.Invalidate(s.key)
		}
		if c.Used() != s.used || c.Len() != s.len {
			t.Fatalf("step %d (%s %s): Used %d Len %d, want %d and %d", i, s.op, s.key, c.Used(), c.Len(), s.used, s.len)
		}
	}
}

// TestCacheAllocs holds a hit to no allocation and an admission that
// evicts to the list element and the item that hold it.
func TestCacheAllocs(t *testing.T) {
	c := lru.New[int, int](64, func(int) string { return "" })
	for i := 0; i < 64; i++ {
		c.Add(i, i, 1)
	}
	race.AllocCeiling(t, "Get of a resident key", testing.AllocsPerRun(100, func() { c.Get(63) }), 0)
	next := 64
	race.AllocCeiling(t, "Add of a new key", testing.AllocsPerRun(100, func() {
		c.Add(next, next, 1)
		next++
	}), 2)
}

// TestCacheConcurrent runs Get, Add and Invalidate from several goroutines
// over overlapping keys (run it under -race); the books must still balance.
func TestCacheConcurrent(t *testing.T) {
	c := lru.New[string, int](32, pathOf)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("/d%d/f%d", i%3, i%50)
				switch (i + g) % 5 {
				case 0:
					c.Invalidate(fmt.Sprintf("/d%d", g%3))
				case 1, 2:
					if v, ok := c.Get(k); ok && v != i%50 {
						t.Errorf("Get(%s) = %d, want %d", k, v, i%50)
					}
				default:
					c.Add(k, i%50, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > c.Budget() || c.Used() != int64(c.Len()) {
		t.Errorf("Used %d, Len %d, Budget %d: unit-size entries must give Used == Len <= Budget", c.Used(), c.Len(), c.Budget())
	}
}
