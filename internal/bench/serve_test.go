package bench

import "testing"

// TestServeSweepShape is the acceptance gate of the scan server: at a high
// arrival rate with overlapping predicates, a generous sharing window must
// cut charged bytes by more than 1.5x versus window 0 — and window 0 itself
// must be byte-exact against sequential solo runs (Serve fails internally
// otherwise). Waiting is the price: a wider window cannot shrink modeled
// p99 wait.
func TestServeSweepShape(t *testing.T) {
	t.Parallel()
	shape(t, Serve, 0.01, checkServeSweep)
}

func BenchmarkServeSweepShape(b *testing.B) {
	for range b.N {
		shape(b, Serve, 0.1, checkServeSweep)
	}
}

func checkServeSweep(t testing.TB, res *ServeResult) {
	wantCells := len(ServeRates) * 2 * len(ServeWindows)
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}

	rate := ServeRates[len(ServeRates)-1]
	wide := ServeWindows[len(ServeWindows)-1]

	// The headline: high rate, high overlap, widest window.
	c := res.Get(rate, true, wide)
	if c.Ratio <= 1.5 {
		t.Errorf("rate %g window %g overlap: charged ratio %.2fx, want > 1.5x (charged %d vs w0 %d)",
			rate, wide, c.Ratio, c.ChargedBytes, res.Get(rate, true, 0).ChargedBytes)
	}
	if c.Shared == 0 || c.BytesSaved <= 0 {
		t.Errorf("rate %g window %g overlap: sharing never fired (%d shared batches, %d saved)",
			rate, wide, c.Shared, c.BytesSaved)
	}

	// Window 0 is the no-batching identity: one batch per query, none shared.
	for _, overlap := range []bool{true, false} {
		z := res.Get(rate, overlap, 0)
		if z.Batches != serveQueries || z.Shared != 0 {
			t.Errorf("window 0 (overlap=%v): %d batches %d shared, want %d/0",
				overlap, z.Batches, z.Shared, serveQueries)
		}
		if z.Ratio != 1 {
			t.Errorf("window 0 (overlap=%v): ratio %.3fx, want exactly 1x", overlap, z.Ratio)
		}
	}

	// The tradeoff the window buys into: batching can only delay starts, so
	// p99 wait must not shrink as the window widens.
	if w0, ww := res.Get(rate, true, 0).Wait.P99, c.Wait.P99; ww < w0 {
		t.Errorf("p99 wait fell from %.4fs to %.4fs as the window widened", w0, ww)
	}

	// Disjoint streams must not pay for the window in bytes: sharing them
	// neither helps nor hurts the charged account.
	d := res.Get(rate, false, wide)
	if d.Ratio < 0.99 || d.Ratio > 1.01 {
		t.Errorf("disjoint at window %g: charged ratio %.3fx, want ~1x", wide, d.Ratio)
	}
}
