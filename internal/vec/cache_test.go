package vec

import (
	"fmt"
	"testing"

	"colmr/internal/scan"
)

func intVector(n int) *scan.Vector {
	v := scan.NewVector(scan.VecInt64, n)
	for i := 0; i < n; i++ {
		v.AppendInt(int64(i))
	}
	return v
}

func TestVectorCacheLRU(t *testing.T) {
	// Each 64-row int64 vector is 512 bytes; budget holds two.
	c := New(1100)
	k := func(i int) Key { return Key{Path: fmt.Sprintf("/d/0000%d/col", i), Gen: 1, Start: 0} }
	for i := 0; i < 3; i++ {
		if !c.Add(k(i), 64, intVector(64)) {
			t.Fatalf("vector %d not admitted", i)
		}
	}
	if c.Vectors() != 2 {
		t.Fatalf("resident %d vectors, want 2 after eviction", c.Vectors())
	}
	if c.Get(k(0), 64) != nil {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if c.Get(k(2), 64) == nil || c.Get(k(1), 64) == nil {
		t.Fatal("recent entries evicted")
	}
	// Touching k(1) makes k(2) the eviction victim for the next admit.
	c.Get(k(1), 64)
	c.Add(k(3), 64, intVector(64))
	if c.Get(k(2), 64) != nil {
		t.Fatal("recently-touched entry evicted instead of LRU")
	}
	if c.Get(k(1), 64) == nil {
		t.Fatal("touched entry evicted")
	}
}

func TestVectorCacheIdentity(t *testing.T) {
	c := New(1 << 20)
	key := Key{Path: "/d/00000/col", Gen: 7, Start: 128}
	c.Add(key, 192, intVector(64))

	if c.Get(key, 192) == nil {
		t.Fatal("exact key missed")
	}
	// A different batch end over the same start is a miss, not a short read.
	if c.Get(key, 160) != nil {
		t.Fatal("entry served for a different batch boundary")
	}
	// A different generation (dataset rebuilt under the same path) is a miss.
	if c.Get(Key{Path: key.Path, Gen: 8, Start: 128}, 192) != nil {
		t.Fatal("entry served across generations")
	}
	// Replacing the boundary replaces the entry.
	c.Add(key, 160, intVector(32))
	if c.Get(key, 192) != nil {
		t.Fatal("stale boundary survived replacement")
	}
	if c.Get(key, 160) == nil {
		t.Fatal("replacement entry missing")
	}
}

func TestVectorCacheInvalidate(t *testing.T) {
	c := New(1 << 20)
	c.Add(Key{Path: "/d/00000/col", Gen: 1}, 64, intVector(64))
	c.Add(Key{Path: "/d/00001/col", Gen: 1}, 64, intVector(64))
	c.Add(Key{Path: "/da/00000/col", Gen: 1}, 64, intVector(64))
	c.Invalidate("/d")
	if c.Vectors() != 1 {
		t.Fatalf("resident %d vectors after invalidate, want 1", c.Vectors())
	}
	// Prefix matching is path-component-wise: /da must survive.
	if c.Get(Key{Path: "/da/00000/col", Gen: 1}, 64) == nil {
		t.Fatal("sibling dataset invalidated")
	}
}

func TestVectorCacheBounds(t *testing.T) {
	if New(0) != nil {
		t.Fatal("zero budget should disable the cache")
	}
	var c *Cache
	if c.Get(Key{}, 0) != nil || c.Add(Key{}, 0, intVector(1)) || c.Used() != 0 || c.Vectors() != 0 {
		t.Fatal("nil cache is not inert")
	}
	c.Invalidate("/") // must not panic

	small := New(100)
	if small.Add(Key{Path: "p"}, 64, intVector(64)) {
		t.Fatal("vector larger than the whole budget admitted")
	}
}

func TestVectorPoolReuse(t *testing.T) {
	var p Pool
	v := p.Get(scan.VecString, 8)
	v.AppendBytes([]byte("stale"))
	p.Put(v)
	// Vectors recycle within their representation only, and come back reset.
	if w := p.Get(scan.VecInt64, 8); w == v || w.Len() != 0 || w.Kind != scan.VecInt64 {
		t.Fatal("an int64 request was served a string vector, or one not reset")
	}
	w := p.Get(scan.VecString, 8)
	if w.Len() != 0 || w.Kind != scan.VecString {
		t.Fatal("pooled vector not reset")
	}
	w.AppendBytes([]byte("x"))
	if w.Value(0) != "x" {
		t.Fatal("pooled vector arena broken")
	}
}
