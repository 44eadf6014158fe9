//go:build race

package standardauction

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// it is given on purpose, so allocation counts are not meaningful.
const raceEnabled = true
