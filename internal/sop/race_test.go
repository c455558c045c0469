//go:build race

package sop

// raceEnabled: under the race detector sync.Pool drops a share of the
// values put into it on purpose, so pooled kernels allocate.
const raceEnabled = true
