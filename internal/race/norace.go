//go:build !race

// Package race tells tests whether the race detector is on. Under it
// sync.Pool drops a share of its Puts on purpose, so an allocation ceiling
// over pooled scratch (testing.AllocsPerRun) measures the detector, not the
// code: such tests run their body either way and skip only the ceiling.
package race

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
