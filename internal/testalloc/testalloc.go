// Package testalloc measures what a call allocates, for the fuzz targets
// that hold a decoder of untrusted bytes to an allocation bound.
package testalloc

import "runtime"

// HeapBytes returns what fn allocates on the heap: the least over three
// calls, because the process's other goroutines (a fuzzing engine's own)
// can allocate during any one of them.
func HeapBytes(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
