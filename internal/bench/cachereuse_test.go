package bench

import "testing"

// TestCacheReuseShape is the acceptance gate of cross-batch caching: a
// repeated selective job through one session must charge at least 2x less
// in aggregate than the same rounds run cold, the warm-up round must cost
// exactly the cold round, and later rounds must serve their bytes from the
// cache (CacheReuse itself fails if any round's match count diverges
// between modes).
func TestCacheReuseShape(t *testing.T) {
	t.Parallel()
	shape(t, CacheReuse, 0.01, checkCacheReuse)
}

func BenchmarkCacheReuseShape(b *testing.B) {
	for range b.N {
		shape(b, CacheReuse, 0.1, checkCacheReuse)
	}
}

func checkCacheReuse(t testing.TB, res *CacheReuseResult) {
	if len(res.Cells) != 2*CacheReuseRoundsPerArm {
		t.Fatalf("got %d cells, want %d", len(res.Cells), 2*CacheReuseRoundsPerArm)
	}

	// The headline: the repeated selective job, >= 2x aggregate charged-byte
	// reduction against cold runs.
	if r := res.Ratio["selective"]; r < 2 {
		t.Errorf("selective arm: aggregate charged ratio %.2fx, want >= 2x", r)
	}

	// Round 1 runs against an empty cache: cold and warm charge the same
	// bytes (a miss is a plain charge plus an admission, never a markup).
	c1 := res.Get("selective", 1)
	if c1.Warm.ChargedBytes != c1.Cold.ChargedBytes {
		t.Errorf("selective round 1: warm charged %d, cold %d — warm-up must cost cold exactly",
			c1.Warm.ChargedBytes, c1.Cold.ChargedBytes)
	}
	if c1.CacheHits != 0 {
		t.Errorf("selective round 1: %d cache hits against an empty cache", c1.CacheHits)
	}

	// Later rounds are served from the session: hits fire, bytes come from
	// cache, and the round charges less than its cold twin.
	for round := 2; round <= CacheReuseRoundsPerArm; round++ {
		c := res.Get("selective", round)
		if c.CacheHits == 0 || c.BytesFromCache == 0 {
			t.Errorf("selective round %d: caching never fired (%d hits, %d bytes)",
				round, c.CacheHits, c.BytesFromCache)
		}
		if c.Warm.ChargedBytes >= c.Cold.ChargedBytes {
			t.Errorf("selective round %d: warm charged %d, cold %d — no reuse",
				round, c.Warm.ChargedBytes, c.Cold.ChargedBytes)
		}
		// Logical work is identical either way: caching changes where bytes
		// come from, never how many records are read.
		if c.Warm.LogicalBytes != c.Cold.LogicalBytes {
			t.Errorf("selective round %d: warm logical %d, cold %d",
				round, c.Warm.LogicalBytes, c.Cold.LogicalBytes)
		}
	}

	// The full arm reuses too — including cross-query hits from the
	// selective rounds that ran before it on the same session.
	if r := res.Ratio["full"]; r < 2 {
		t.Errorf("full arm: aggregate charged ratio %.2fx, want >= 2x", r)
	}
	if res.CacheUsed <= 0 || res.CacheUsed > res.CacheBytes {
		t.Errorf("cache resident %d bytes outside (0, %d]", res.CacheUsed, res.CacheBytes)
	}
}
