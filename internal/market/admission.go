package market

import (
	"sync"

	"distauction/internal/metrics"
	"distauction/internal/trace"
	"distauction/internal/wire"
)

// gate is one auction's bidder-facing admission front end. It sits on the
// mux's inbound path (provider side) and decides, per bid submission,
// whether the bid may reach the auction's session:
//
//   - only the auction's configured users are admitted (a stranger's bid
//     could never fill a slot anyway — it would only consume buffer);
//   - each user is admitted at most once per round — duplicates of the
//     same submission are free (the peer absorbs identical re-sends), so a
//     flooding bidder cannot take more than its fair share of one slot per
//     round;
//   - bids are admitted only for rounds in [next, next+window): ingest that
//     outruns round capacity is dropped at the door instead of ballooning
//     the session's buffered state. next advances as the market observes
//     emitted outcomes, so the window *is* the backpressure: a stalled
//     auction stops admitting.
//
// Dropping a bid is protocol-safe — the round substitutes the neutral bid
// for the missing submission — which is what makes door-level backpressure
// possible at all.
type gate struct {
	users  map[wire.NodeID]struct{}
	window uint64
	lane   uint32      // the auction's lane (trace labels)
	self   wire.NodeID // the observing provider (trace labels)

	mu          sync.Mutex
	next        uint64 // lowest round not yet completed
	maxAdmitted uint64 // highest round any bid was admitted for
	draining    bool
	seen        map[uint64]map[wire.NodeID]struct{}
	free        []map[wire.NodeID]struct{} // retired sender sets, cleared for reuse
	pending     int

	admitted metrics.Counter
	dropped  metrics.Counter
}

func newGate(users []wire.NodeID, startRound uint64, window int, lane uint32, self wire.NodeID) *gate {
	set := make(map[wire.NodeID]struct{}, len(users))
	for _, u := range users {
		set[u] = struct{}{}
	}
	return &gate{
		users:  set,
		window: uint64(window),
		lane:   lane,
		self:   self,
		next:   startRound,
		seen:   make(map[uint64]map[wire.NodeID]struct{}),
	}
}

// Admission-drop trace codes (Event.Code on PhaseAdmissionDrop events).
const (
	dropStranger = 1 // sender is not one of the auction's users
	dropWindow   = 2 // round outside the admission window, or draining
)

// admit decides one bid submission. It runs on the transport's producer
// goroutines; the critical section is a couple of map operations.
func (g *gate) admit(from wire.NodeID, round uint64) bool {
	if _, ok := g.users[from]; !ok {
		g.dropped.Inc()
		trace.Emit(trace.PhaseAdmissionDrop, round, g.lane, g.self, from, dropStranger)
		return false
	}
	g.mu.Lock()
	if g.draining || round < g.next || round >= g.next+g.window {
		g.mu.Unlock()
		g.dropped.Inc()
		trace.Emit(trace.PhaseAdmissionDrop, round, g.lane, g.self, from, dropWindow)
		return false
	}
	senders := g.seen[round]
	if senders == nil {
		if n := len(g.free); n > 0 {
			senders = g.free[n-1]
			g.free[n-1] = nil
			g.free = g.free[:n-1]
		} else {
			senders = make(map[wire.NodeID]struct{}, len(g.users))
		}
		g.seen[round] = senders
	}
	if _, dup := senders[from]; dup {
		g.mu.Unlock()
		return true // identical re-send; absorbed downstream, costs nothing
	}
	senders[from] = struct{}{}
	g.pending++
	if round > g.maxAdmitted {
		g.maxAdmitted = round
	}
	g.mu.Unlock()
	g.admitted.Inc()
	return true
}

// roundDone slides the window past round: admission state for all rounds
// <= round is reclaimed and bids for the rounds that just came into the
// window become admissible.
func (g *gate) roundDone(round uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if round < g.next {
		return
	}
	for r := g.next; r <= round; r++ {
		if senders, ok := g.seen[r]; ok {
			g.pending -= len(senders)
			delete(g.seen, r)
			// Recycle the sender set — one set retires per round completed,
			// so the steady state never allocates one. The cap matches the
			// admission window, the most sets ever live at once. Without the
			// recycling, BenchmarkSteadyStateAllocs reads 135.9 allocs/round,
			// not 124.1 (EXPERIMENTS.md).
			if uint64(len(g.free)) < g.window {
				clear(senders)
				g.free = append(g.free, senders)
			}
		}
	}
	g.next = round + 1
}

// drain permanently closes the gate (no new bids) and returns the highest
// round holding an admitted bid — the round a graceful close must wait for.
func (g *gate) drain() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	return g.maxAdmitted
}

// depth returns the number of admitted-but-not-yet-completed bids (the
// auction's ingest queue depth).
func (g *gate) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending
}
