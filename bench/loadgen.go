package main

import (
	"sync"
	"time"
)

// lanePort is all the load generator needs from one auction lane, so the
// loops below can be tested against a fake system.
type lanePort interface {
	// Submit sends every bidder's bid for the round.
	Submit(round int) error
	// Await blocks until every bidder of the lane holds the round's
	// outcome and returns how many of those bidder operations failed
	// (⊥, drop, timeout, missing outcome).
	Await(round int) (failed int)
}

// runClosed is the closed loop: `ahead` rounds are kept in flight, and
// the next round is submitted only when the oldest one's outcome is held
// by every bidder. ahead = 1 is lockstep. A round's clock starts at its
// first submit.
func runClosed(l lanePort, rounds, ahead int, sp *spanLog) laneTimes {
	lt := newLaneTimes(rounds, false)
	submit := func(r int) {
		t := time.Now()
		lt.start[r-1] = t
		if err := l.Submit(r); err != nil {
			lt.failed[r-1]++
		}
		lt.submit[r-1] = time.Since(t)
		sp.add("loadgen.submit", r, t, t.Add(lt.submit[r-1]))
	}
	for r := 1; r <= min(ahead, rounds); r++ {
		submit(r)
	}
	for r := 1; r <= rounds; r++ {
		t := time.Now()
		lt.failed[r-1] += l.Await(r)
		lt.end[r-1] = time.Now()
		sp.add("core.outcome_receive", r, t, lt.end[r-1])
		sp.add("round", r, lt.start[r-1], lt.end[r-1])
		if next := r + ahead; next <= rounds {
			submit(next)
		}
	}
	return lt
}

// runOpen is the open loop: round r is due at t0 + (r-1)·period whatever
// the system is doing, and its clock starts at that due time, so a stall
// shows as waiting on every round that fell due meanwhile. lag records
// how late the generator itself ran.
func runOpen(l lanePort, rounds int, t0 time.Time, period time.Duration, sp *spanLog) laneTimes {
	lt := newLaneTimes(rounds, true)
	for r := 1; r <= rounds; r++ {
		lt.start[r-1] = t0.Add(time.Duration(r-1) * period)
	}
	submitFailed := make([]bool, rounds) // the submitter's; merged after it exits
	sub := sp.sibling()                  // the submitter goroutine's own log
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for r := 1; r <= rounds; r++ {
			if wait := time.Until(lt.start[r-1]); wait > 0 {
				timer.Reset(wait)
				<-timer.C
			}
			t := time.Now()
			lt.lag[r-1] = t.Sub(lt.start[r-1])
			submitFailed[r-1] = l.Submit(r) != nil
			lt.submit[r-1] = time.Since(t)
			sub.add("loadgen.submit", r, t, t.Add(lt.submit[r-1]))
		}
	}()
	for r := 1; r <= rounds; r++ {
		t := time.Now()
		lt.failed[r-1] = l.Await(r)
		lt.end[r-1] = time.Now()
		sp.add("core.outcome_receive", r, t, lt.end[r-1])
		sp.add("round", r, lt.start[r-1], lt.end[r-1])
	}
	wg.Wait()
	sp.merge(sub)
	for r, f := range submitFailed {
		if f {
			lt.failed[r]++
		}
	}
	return lt
}
