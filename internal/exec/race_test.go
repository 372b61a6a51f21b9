//go:build race

package exec

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// its puts at random, so allocation counts of pooled paths are not exact.
const raceEnabled = true
