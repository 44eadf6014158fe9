package transport

import (
	"runtime"
	"sync"
	"sync/atomic"

	"distauction/internal/trace"
	"distauction/internal/wire"
)

// maxCoalesce bounds the envelopes per shipped superframe. Batches normally
// stay far smaller (they only grow while a burst outpaces its flush); the
// cap keeps a pathological burst's frame bounded well under
// wire.MaxSuperframeEnvs.
const maxCoalesce = 128

// maxCoalesceBytes bounds a superframe's accumulated payload bytes. Two
// individually legal jumbo envelopes must not coalesce into a frame that
// wire.MaxFrameLen would reject where the separate sends would each have
// succeeded; the cap also bounds how much memory one decoded frame can pin
// on the receive side while a buffered envelope waits for its round.
const maxCoalesceBytes = 128 << 10

// CoalesceStats counts a coalescer's outbound traffic.
type CoalesceStats struct {
	// Frames is every ship: superframes and singleton envelopes alike.
	Frames int64
	// Superframes is the ships that carried more than one envelope.
	Superframes int64
	// Envelopes is the total envelopes shipped.
	Envelopes int64
	// Lost is the envelopes of queued batches whose ship failed: their
	// senders had already returned, so no caller saw the error.
	Lost int64
}

// Occupancy returns the average envelopes per shipped frame (0 before any
// traffic). 1.0 means coalescing never found a concurrent companion; the
// amortisation win grows with this number.
func (s CoalesceStats) Occupancy() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.Envelopes) / float64(s.Frames)
}

// Coalescer is a send-side helper over a BatchConn — not a connection
// itself; the receive half stays with the conn's owner. It gathers a
// burst of sends to one destination peer into superframes. A destination
// is synchronous until it accepts a frame, and again after any of its
// ships fails: a send ships inline and returns the conn's own error (an
// attach-time retry depends on that). Once it is asynchronous, a send
// appends to the destination's open batch and returns, and the first
// appender to an idle destination starts its flush: one goroutine that
// yields once, ships open batches until none is left, and exits. There is
// no flush timer; an m²-burst to a peer costs O(1) frames instead of
// O(m²), for one yield and one wake per burst.
//
// One ship to a destination is in flight at a time, so its batches leave
// in queue order. A batch at either cap is shipped inline by the appender
// that reaches it, which waits its turn: a conn that holds a ship for
// flow control (a full Resilient window) holds that destination's
// senders, and per-destination memory stays bounded.
type Coalescer struct {
	conn BatchConn

	// peers is copy-on-write (the Mux.lanes / Hub.nodes pattern): the
	// per-send lookup is one atomic load, mu only guards the rare insert of
	// a new destination.
	peers atomic.Pointer[map[wire.NodeID]*peerCoalescer]
	mu    sync.Mutex

	frames      atomic.Int64
	superframes atomic.Int64
	envelopes   atomic.Int64
	lost        atomic.Int64
}

// peerCoalescer is one destination's send state, all of it under mu. open
// is the queued batch; spare is the last shipped batch's slice, cleared,
// so a steady burst allocates no batches (one ship in flight needs two).
type peerCoalescer struct {
	mu       sync.Mutex
	turn     sync.Cond // on mu: shipping or flushing went false
	open     []wire.Envelope
	spare    []wire.Envelope
	bytes    int  // open's payload bytes, bounded by maxCoalesceBytes
	async    bool // accepted a frame and no ship since failed: sends queue
	flushing bool // a flush goroutine owns the queue
	shipping bool // a batch is between leaving open and its ship's return
}

// NewCoalescer returns a coalescer sending on conn. Its only goroutines
// are flushes, each of which exits once its destination's queue is empty;
// Flush ships what is queued before the owner closes conn.
func NewCoalescer(conn BatchConn) *Coalescer {
	c := &Coalescer{conn: conn}
	empty := make(map[wire.NodeID]*peerCoalescer)
	c.peers.Store(&empty)
	return c
}

// Stats returns the coalescer's outbound counters.
func (c *Coalescer) Stats() CoalesceStats {
	return CoalesceStats{
		Frames:      c.frames.Load(),
		Superframes: c.superframes.Load(),
		Envelopes:   c.envelopes.Load(),
		Lost:        c.lost.Load(),
	}
}

// peer returns the destination's coalescer, creating it on first use.
func (c *Coalescer) peer(id wire.NodeID) *peerCoalescer {
	if pc, ok := (*c.peers.Load())[id]; ok {
		return pc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.peers.Load()
	if pc, ok := old[id]; ok {
		return pc
	}
	pc := &peerCoalescer{}
	pc.turn.L = &pc.mu
	next := make(map[wire.NodeID]*peerCoalescer, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = pc
	c.peers.Store(&next)
	return pc
}

// Send queues env for its destination and returns, or — while the
// destination is synchronous — ships it inline and returns the conn's
// error. A synchronous send waits its turn like any ship, so it never
// overtakes envelopes queued before it.
func (c *Coalescer) Send(env wire.Envelope) error {
	pc := c.peer(env.To)
	pc.mu.Lock()
	for {
		fits := len(pc.open) == 0 ||
			len(pc.open) < maxCoalesce && pc.bytes+len(env.Payload) <= maxCoalesceBytes
		switch {
		case pc.shipping && (!pc.async || !fits), !pc.async && pc.flushing:
			pc.turn.Wait()
			continue
		case !pc.async: // open is empty: queued envelopes always have a flush
			pc.open = append(pc.open, env)
			err := c.shipLocked(pc, false)
			pc.mu.Unlock()
			return err
		case !fits:
			c.shipLocked(pc, true) // at a cap, and it is this sender's turn
			continue
		}
		break
	}
	pc.open = append(pc.open, env)
	pc.bytes += len(env.Payload)
	start := !pc.flushing
	pc.flushing = true
	pc.mu.Unlock()
	if start {
		go c.flush(pc)
	}
	return nil
}

// flush is one destination's burst: it yields once, so the burst's other
// runnable senders append before its first ship, then ships queued
// batches in queue order until none is left. The yield is what makes a
// burst one frame: without it another processor starts the flush within
// microseconds, and a market64-closed round ships 12.8 frames instead of
// 2.66, for the same rounds/s (the yield won 7 of 20 pairs there;
// EXPERIMENTS.md, "Senders stop waiting").
func (c *Coalescer) flush(pc *peerCoalescer) {
	runtime.Gosched()
	pc.mu.Lock()
	for len(pc.open) > 0 {
		if pc.shipping {
			pc.turn.Wait()
			continue
		}
		c.shipLocked(pc, true)
	}
	pc.flushing = false
	pc.turn.Broadcast()
	pc.mu.Unlock()
}

// shipLocked ships the open batch and returns the conn's error; pc.mu is
// held on entry and on return, but not during the ship. The destination is
// asynchronous from a ship that succeeds until one that fails, and a failed
// batch of queued envelopes, whose senders have returned, is counted lost.
func (c *Coalescer) shipLocked(pc *peerCoalescer, queued bool) error {
	batch := pc.open
	pc.open, pc.spare, pc.bytes, pc.shipping = pc.spare, nil, 0, true
	pc.mu.Unlock()
	err := c.ship(batch)
	pc.mu.Lock()
	if err != nil && queued {
		c.lost.Add(int64(len(batch)))
	}
	clear(batch) // unpin the shipped payloads
	pc.spare, pc.shipping, pc.async = batch[:0], false, err == nil
	pc.turn.Broadcast()
	return err
}

// Flush ships, on the caller's goroutine, every queued batch whose
// destination has no ship in flight. It does not wait for the ships that
// are: one held for window room is released by closing the conn, and what
// is queued behind it is then counted lost. A ship Flush starts itself
// obeys the conn's flow control like any other: over Resilient it waits
// for window room, which — since the conn is still open — only acks or the
// failure detector's dead verdict end (the batch is then dropped and
// counted in LinkStats.Overflow), so Flush can take DeadAfter heartbeat
// intervals.
func (c *Coalescer) Flush() {
	for _, pc := range *c.peers.Load() {
		pc.mu.Lock()
		if len(pc.open) > 0 && !pc.shipping {
			c.shipLocked(pc, true)
		}
		pc.mu.Unlock()
	}
}

// Drain waits until no destination has a batch queued or in flight.
func (c *Coalescer) Drain() {
	for _, pc := range *c.peers.Load() {
		pc.mu.Lock()
		for pc.flushing || pc.shipping {
			pc.turn.Wait()
		}
		pc.mu.Unlock()
	}
}

// SendBatch ships a batch the caller already formed, at once, counted like
// one the coalescer sealed itself.
func (c *Coalescer) SendBatch(envs []wire.Envelope) error {
	c.frames.Add(1)
	c.envelopes.Add(int64(len(envs)))
	if len(envs) > 1 {
		c.superframes.Add(1)
	}
	return c.conn.SendBatch(envs)
}

// ship transmits one batch: a singleton through Send, anything larger
// through SendBatch. SendBatch must not retain the slice past return (the
// BatchConn contract), so the caller recycles it. The singleton branch is
// for the Hub, where a delayed SendBatch copies its batch and a delayed
// Send does not: singletons are 85 % of ships on market64-paced, 19 % on
// market64-closed and 20 % on market16-tcp. BenchmarkSteadyStateAllocs
// (zero-latency Hub) reads 133.1–133.2 allocs/round with the branch and
// 133.1–133.2 with every ship through SendBatch; the same run on the
// CommunityNetModel Hub reads 184.5–185.5 with it and 208.5–211.3
// without (EXPERIMENTS.md). Over TCP both calls write the same frame.
func (c *Coalescer) ship(envs []wire.Envelope) (err error) {
	span := trace.Begin()
	c.frames.Add(1)
	c.envelopes.Add(int64(len(envs)))
	if len(envs) == 1 {
		err = c.conn.Send(envs[0])
	} else {
		c.superframes.Add(1)
		err = c.conn.SendBatch(envs)
	}
	// The span covers the ship of the whole batch; Code carries the
	// envelope count (the coalescing win this frame realised).
	trace.Span(span, trace.PhaseCoalesceShip, envs[0].Tag.Round, 0,
		c.conn.Self(), envs[0].To, int32(len(envs)))
	return err
}
