//go:build race

package analysis

// raceEnabled: under the race detector sync.Pool drops a share of its Puts,
// so allocation counts of pooled paths are not fixed.
const raceEnabled = true
