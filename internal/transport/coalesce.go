package transport

import (
	"runtime"
	"sync"
	"sync/atomic"

	"distauction/internal/trace"
	"distauction/internal/wire"
)

// maxCoalesce bounds the envelopes per shipped superframe. Batches normally
// stay far smaller (they only grow while senders are concurrently queued);
// the cap keeps a pathological burst's frame bounded well under
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
// itself; the receive half and Close stay with the conn's owner. It gathers
// concurrent same-destination sends into superframes. The flush policy is
// last-writer-flushes at envelope granularity (the envelope-level analogue
// of the TCP transport's byte coalescing): a Send appends to the destination peer's open batch, and the
// last concurrent appender detaches and ships it. An isolated send thus
// still leaves in one hop with zero added latency — there is no flush timer
// — while an m²-burst to a peer costs O(1) frames instead of O(m²).
//
// Ships happen outside the per-peer lock, so a transport that delivers
// synchronously (the zero-latency Hub) can invoke receive handlers — which
// may themselves send — without lock cycles. Batches to one peer may
// therefore ship out of order, which the asynchronous model already
// requires every receiver to tolerate.
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
}

// peerCoalescer is one destination's open batch. queued counts senders
// committed to appending (incremented before taking mu), so the appender
// that brings it back to zero knows no concurrent companion follows and
// ships the batch. free recycles retired batches — their envelope slices
// and join state — so a steady-state burst allocates nothing per frame.
type peerCoalescer struct {
	queued atomic.Int64
	mu     sync.Mutex
	open   *pendingBatch
	free   []*pendingBatch
}

// maxFreeBatches caps a destination's recycled-batch list; batches beyond
// it fall to the GC (batches only pile up when the cap detached several in
// one burst, which steady traffic never does).
const maxFreeBatches = 4

// pendingBatch accumulates envelopes until shipped; wg reaches zero once
// the ship's outcome is in err, so every appender observes the fate of the
// frame that carried its envelope. refs counts appenders still to read
// err; the last one recycles the batch into its peer's free list, which is
// also why wg is reusable — a new cycle's Add happens only after every
// Wait of the previous cycle returned.
type pendingBatch struct {
	envs  []wire.Envelope
	bytes int // accumulated payload bytes, bounded by maxCoalesceBytes
	wg    sync.WaitGroup
	err   error
	refs  atomic.Int32
}

// NewCoalescer returns a coalescer sending on conn. It owns no goroutines
// and nothing to close; once conn closes, sends fail with conn's error.
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
	next := make(map[wire.NodeID]*peerCoalescer, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = pc
	c.peers.Store(&next)
	return pc
}

// Send appends env to the destination peer's open batch; the last
// concurrent appender ships the batch and every appender returns the
// outcome of the frame that carried its envelope.
//
// Before sealing, the would-be shipper yields the processor once. Sends of
// a peer-burst are usually *runnable* together rather than *running*
// together — one inbound frame wakes many session goroutines that each send
// within microseconds — and on a small host they run back to back, so
// without the yield each would find the batch empty of companions and ship
// alone. The yield lets every already-runnable sender append first, then
// ships one superframe for the lot. An isolated send pays one scheduler
// pass through an empty run queue — nanoseconds — and still leaves
// immediately; no flush timer exists anywhere on this path.
func (c *Coalescer) Send(env wire.Envelope) error {
	pc := c.peer(env.To)
	pc.queued.Add(1)
	pc.mu.Lock()
	// A batch at either cap — envelope count or payload bytes — is detached
	// and shipped immediately; the appender that detached it starts a fresh
	// batch for its own envelope.
	var full *pendingBatch
	if pc.open != nil &&
		(len(pc.open.envs) >= maxCoalesce || pc.open.bytes+len(env.Payload) > maxCoalesceBytes) {
		full = pc.open
		pc.open = nil
	}
	pb := pc.open
	if pb == nil {
		pb = pc.getBatchLocked()
		pc.open = pb
	}
	pb.envs = append(pb.envs, env)
	pb.bytes += len(env.Payload)
	pb.refs.Add(1)
	pending := pc.queued.Add(-1) > 0
	pc.mu.Unlock()
	if full != nil {
		// The detacher's own envelope is in the fresh batch, not full: it
		// ships full for its appenders and never touches it after Done.
		c.ship(full)
	}
	if pending {
		// A committed successor (queued was > 0) will take the lock and
		// either ship pb or wait behind yet another successor; induction
		// bottoms out at a successor that finds no further company, and the
		// cap bounds how long a batch can keep growing.
		pb.wg.Wait()
		return release(pc, pb)
	}
	runtime.Gosched()
	pc.mu.Lock()
	if pc.open != pb || pc.queued.Load() > 0 {
		// Someone who appended during the yield already sealed the batch (or
		// detached it at the cap), or new senders are committed to appending
		// and the seal is theirs: either way the batch's ship covers our
		// envelope.
		pc.mu.Unlock()
		pb.wg.Wait()
		return release(pc, pb)
	}
	pc.open = nil
	pc.mu.Unlock()
	c.ship(pb)
	return release(pc, pb)
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

// getBatchLocked pops a recycled batch (or builds the peer's first few) and
// arms its join; the caller holds pc.mu.
func (pc *peerCoalescer) getBatchLocked() *pendingBatch {
	var pb *pendingBatch
	if n := len(pc.free); n > 0 {
		pb = pc.free[n-1]
		pc.free[n-1] = nil
		pc.free = pc.free[:n-1]
	} else {
		pb = &pendingBatch{}
	}
	pb.wg.Add(1)
	return pb
}

// release reports the batch's fate to one appender; the last appender to
// leave recycles the batch. The error is read before the decrement — after
// it, the batch may already be rearmed for another cycle.
func release(pc *peerCoalescer, pb *pendingBatch) error {
	err := pb.err
	if pb.refs.Add(-1) == 0 {
		clear(pb.envs) // unpin the shipped payloads
		pb.envs = pb.envs[:0]
		pb.bytes = 0
		pb.err = nil
		pc.mu.Lock()
		if len(pc.free) < maxFreeBatches {
			pc.free = append(pc.free, pb)
		}
		pc.mu.Unlock()
	}
	return err
}

// ship transmits one sealed batch and releases its joiners: a singleton as
// a plain envelope (the per-envelope MAC fallback), anything larger as one
// superframe. SendBatch must not retain the slice past return (the
// BatchConn contract), so the batch — slice included — recycles once every
// appender released it.
func (c *Coalescer) ship(pb *pendingBatch) {
	span := trace.Begin()
	envs := pb.envs
	c.frames.Add(1)
	c.envelopes.Add(int64(len(envs)))
	if len(envs) == 1 {
		pb.err = c.conn.Send(envs[0])
	} else {
		c.superframes.Add(1)
		pb.err = c.conn.SendBatch(envs)
	}
	// The span covers seal-to-transmit for the whole batch; Code carries
	// the envelope count (the coalescing win this frame realised).
	trace.Span(span, trace.PhaseCoalesceShip, envs[0].Tag.Round, 0,
		c.conn.Self(), envs[0].To, int32(len(envs)))
	pb.wg.Done()
}
