//go:build !race

package standardauction

const raceEnabled = false
