package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark's own arithmetic, kept free of the system under test so
// stats_test.go can pin every rule the metrics depend on.

// warmupRounds is how many leading rounds of each lane are excluded from
// every end-to-end metric: the first 5 %, rounded up.
func warmupRounds(rounds int) int { return (rounds*5 + 99) / 100 }

// tailCandidates are the percentiles a tail metric may be reported at.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it, or 0 when even p75 does not.
func tailPercentile(samples int) float64 {
	for _, p := range tailCandidates {
		if beyond(samples, p) >= 10 {
			return p
		}
	}
	return 0
}

// beyond is how many of the samples lie beyond the p-th percentile. The
// epsilon keeps 10000 samples at p99.9 from reading 9.999….
func beyond(samples int, p float64) float64 { return float64(samples)*(100-p)/100 + 1e-9 }

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianAfterFirst is the set-up rule: the first cycle pays one-off costs
// (page faults, lazy runtime initialisation) and is discarded; the median
// of the rest is reported.
func medianAfterFirst(cycles []float64) float64 {
	if len(cycles) < 2 {
		return median(cycles)
	}
	return median(cycles[1:])
}

// laneTimes is what the load generator records for one lane. Index r-1
// holds round r.
type laneTimes struct {
	start  []time.Time     // first submit of the round (closed loop) or its due time (open loop)
	end    []time.Time     // the last bidder holds the round's outcome
	failed []int           // bidder operations of the round that failed
	lag    []time.Duration // open loop: how long after the due time the submit began
	submit []time.Duration // time spent inside Submit for the round's bids
}

func newLaneTimes(rounds int, open bool) laneTimes {
	lt := laneTimes{
		start:  make([]time.Time, rounds),
		end:    make([]time.Time, rounds),
		failed: make([]int, rounds),
		submit: make([]time.Duration, rounds),
	}
	if open {
		lt.lag = make([]time.Duration, rounds)
	}
	return lt
}

// endToEnd are the three run metrics of one pass (set-up time is
// measured apart).
type endToEnd struct {
	roundsPerS float64
	p50Ms      float64
	tailMs     float64
	samples    int // measured (lane, round) pairs, failed ones included
	completed  int // of those, rounds on which no operation failed
}

// summarize folds the lanes' records into the end-to-end metrics of one
// pass. The first warmupRounds of every lane are excluded. Throughput is
// the rounds that completed divided by the time from the first measured
// round's start (its first submit, or its due time in the open loop) to
// the last measured outcome. The latencies are taken over every measured
// (lane, round); a round with any failed operation is given failedMs,
// which the caller sets above every possible sample (the round timeout),
// so it ranks slower than every round that completed and does not count
// as completed.
func summarize(lanes []laneTimes, tailP, failedMs float64) endToEnd {
	var e endToEnd
	var lat []float64
	var first, last time.Time
	for _, lt := range lanes {
		for r := warmupRounds(len(lt.start)); r < len(lt.start); r++ {
			if first.IsZero() || lt.start[r].Before(first) {
				first = lt.start[r]
			}
			if lt.end[r].After(last) {
				last = lt.end[r]
			}
			if lt.failed[r] > 0 {
				lat = append(lat, failedMs)
				continue
			}
			e.completed++
			lat = append(lat, ms(lt.end[r].Sub(lt.start[r])))
		}
	}
	e.samples = len(lat)
	if span := last.Sub(first).Seconds(); span > 0 {
		e.roundsPerS = float64(e.completed) / span
	}
	sort.Float64s(lat)
	e.p50Ms = percentile(lat, 50)
	e.tailMs = percentile(lat, tailP)
	return e
}

// medianOfPasses is how a run of several passes reports its metrics: each
// pass is a whole measurement on a fresh deployment, and the run reports
// the median of each metric over the passes. A slowdown in the program
// shows in every pass; a neighbour on a shared host that takes the
// processor for a few seconds spoils a minority of the passes.
func medianOfPasses(passes []endToEnd) endToEnd {
	var rate, p50, tail []float64
	var e endToEnd
	for _, p := range passes {
		rate, p50, tail = append(rate, p.roundsPerS), append(p50, p.p50Ms), append(tail, p.tailMs)
		e.samples += p.samples
		e.completed += p.completed
	}
	e.roundsPerS, e.p50Ms, e.tailMs = median(rate), median(p50), median(tail)
	return e
}

// worseBy is the share of base by which val is worse, negative when it is
// better. higher says whether larger values are better.
func worseBy(higher bool, base, val float64) float64 {
	if base == 0 {
		return 0
	}
	if higher {
		return (base - val) / base
	}
	return (val - base) / base
}

// agree reports whether two medians of the same code agree within bound
// in both directions.
func agree(higher bool, a, b, bound float64) bool {
	return worseBy(higher, a, b) <= bound && worseBy(higher, b, a) <= bound
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsPercentile(ds []time.Duration, p float64) time.Duration {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	sort.Float64s(s)
	return time.Duration(percentile(s, p))
}
