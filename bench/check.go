package main

import (
	"slices"
	"sync"

	"distauction"
)

// laneCheck is the outcome-agreement oracle for one lane: per round every
// provider and every bidder must hold the identical outcome, or all must
// hold ⊥, and the agreed allocation must fit the supply. Observations
// arrive from the lane's load-generator goroutine (bidders) and from the
// providers' outcome callbacks, in any order.
type laneCheck struct {
	observers int                 // providers + bidders
	supply    []distauction.Fixed // per-provider capacity; nil skips the supply check

	mu            sync.Mutex
	open          map[uint64]*roundCheck
	complete      int // rounds every observer reported
	disagreements int // observations differing from the round's first
	oversupplied  int // agreed allocations exceeding supply
}

type roundCheck struct {
	ref  distauction.Outcome
	bot  bool
	seen int
}

func newLaneCheck(observers int, supply []distauction.Fixed) *laneCheck {
	return &laneCheck{observers: observers, supply: supply, open: make(map[uint64]*roundCheck)}
}

func outcomesEqual(a, b distauction.Outcome) bool {
	return a.Alloc.NumUsers == b.Alloc.NumUsers && a.Alloc.NumProviders == b.Alloc.NumProviders &&
		slices.Equal(a.Alloc.Units, b.Alloc.Units) &&
		slices.Equal(a.Pay.ByUser, b.Pay.ByUser) &&
		slices.Equal(a.Pay.ToProvider, b.Pay.ToProvider)
}

// observe records that one observer holds out (or ⊥) for the round.
func (c *laneCheck) observe(round uint64, out distauction.Outcome, bot bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rc := c.open[round]
	if rc == nil {
		rc = &roundCheck{ref: out, bot: bot}
		c.open[round] = rc
	} else if rc.bot != bot || (!bot && !outcomesEqual(rc.ref, out)) {
		c.disagreements++
	}
	rc.seen++
	if rc.seen < c.observers {
		return
	}
	delete(c.open, round)
	c.complete++
	if !rc.bot && c.supply != nil && rc.ref.Alloc.CheckFeasible(c.supply) != nil {
		c.oversupplied++
	}
}

// verdict is what the oracle found over a whole pass.
type verdict struct {
	complete      int // rounds every observer reported
	incomplete    int // rounds some observer never reported
	disagreements int
	oversupplied  int
}

func (v verdict) ok(rounds int) bool {
	return v.complete == rounds && v.incomplete == 0 && v.disagreements == 0 && v.oversupplied == 0
}

func (c *laneCheck) verdict() verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return verdict{complete: c.complete, incomplete: len(c.open), disagreements: c.disagreements, oversupplied: c.oversupplied}
}

func (v verdict) add(o verdict) verdict {
	return verdict{v.complete + o.complete, v.incomplete + o.incomplete, v.disagreements + o.disagreements, v.oversupplied + o.oversupplied}
}
