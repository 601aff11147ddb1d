package race

import "testing"

// AllocCeiling fails tb when allocs, a testing.AllocsPerRun count of what,
// exceeds ceiling — unless the race detector is on, when the count (taken
// either way: the test body has run) is only logged.
func AllocCeiling(tb testing.TB, what string, allocs, ceiling float64) {
	tb.Helper()
	if Enabled {
		tb.Logf("%s allocates %.1f objects per run under the race detector; its ceiling of %.0f is not checked", what, allocs, ceiling)
	} else if allocs > ceiling {
		tb.Errorf("%s allocates %.1f objects per run, ceiling %.0f", what, allocs, ceiling)
	}
}
