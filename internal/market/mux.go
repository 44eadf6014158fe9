// Package market is the marketplace layer of the distributed auctioneer:
// it runs many independent, named auctions — each its own core.Session with
// its own mechanism, coalition bound, bid window and round cadence — over
// ONE shared transport attachment per node.
//
// The paper defines a single auction among a fixed provider set; a
// production deployment serves many concurrent auctions (one per gateway,
// spectrum band, VM class, …) over the same provider fleet. The market
// multiplexes them on the wire by *lane*: the high wire.LaneBits of
// Tag.Instance address the auction, the low bits stay the block-local
// instance, so every auction gets its own isolated tag namespace — rounds
// of different auctions pipeline independently and an abort (⊥) in one
// auction can never poison another, even though all traffic shares one
// connection and one striped router per lane.
//
// A Market (provider side) owns the auction catalog: auctions open, drain
// and close at runtime, lanes are assigned deterministically from the
// auction name so independently-configured providers agree without extra
// coordination, incoming bids pass an admission gate (backpressure and
// fair-share limits), outcomes fan out to per-auction enforcement targets
// (gateways + ledger), and per-auction plus whole-market counters are
// exported. A Bidder (user side) joins auctions by name over the same
// single attachment.
package market

import (
	"fmt"
	"sync"
	"sync/atomic"

	"distauction/internal/metrics"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// ErrMuxClosed reports a send on a lane of a mux that has been closed. It
// wraps transport.ErrClosed so transport-level callers keep matching, while
// market callers can tell a whole-mux shutdown from an individually closed
// lane.
var ErrMuxClosed = fmt.Errorf("market: mux closed: %w", transport.ErrClosed)

// AdmitFunc inspects one inbound envelope after lane demultiplexing (the
// tag's Instance is already the block-local one) and reports whether it may
// be delivered. Returning false drops the message — safe for bid
// submissions, which degrade to the neutral bid.
type AdmitFunc func(lane uint32, env wire.Envelope) bool

// Parking bounds: messages for lanes that are not open yet are buffered so
// that providers opening the same auction at slightly different times do
// not lose each other's early traffic. Beyond the bounds messages drop —
// bounded memory beats the reliable-channels idealisation under attack.
const (
	maxParkedPerLane = 256
	maxParkedTotal   = 4096
)

// laneInboxSize buffers a lane's inbound messages between Lane() and the
// session's handler installation (a few microseconds later); it also
// carries the parked backlog drained at open.
const laneInboxSize = maxParkedPerLane + 64

// Mux multiplexes wire.MaxLane+1 virtual connections (lanes) over one
// transport.Conn. Lane k's traffic carries k in the high bits of
// Tag.Instance; the mux shifts the lane in on send and strips it on
// receive, so each lane's user (a proto.Peer) sees plain block-local
// instances and stays lane-oblivious.
type Mux struct {
	conn transport.Conn
	self wire.NodeID

	// co is the send path: all lanes' sends coalesce per destination peer
	// into superframes.
	co *transport.Coalescer

	// lanes is copy-on-write: dispatch (the per-message hot path, possibly
	// many producer goroutines on a push transport) reads it with one atomic
	// load; mu guards mutation.
	lanes atomic.Pointer[map[uint32]*laneConn]
	admit atomic.Pointer[AdmitFunc]

	mu          sync.Mutex
	parked      map[uint32][]wire.Envelope
	parkedTotal int

	// parkedDropped counts envelopes dropped because parking, or an open
	// lane's mailbox before its handler was installed, overflowed.
	parkedDropped metrics.Counter
	// batchesIn / batchedEnvsIn count inbound superframes and the envelopes
	// they carried (receive-side occupancy).
	batchesIn     metrics.Counter
	batchedEnvsIn metrics.Counter

	closed atomic.Bool
	once   sync.Once
}

// NewMux wraps conn. Inbound envelopes are dispatched to lanes directly in
// the producing goroutines (lanes then run in parallel), whole superframes
// in ONE call with the lane fan-out inside; sends from all lanes coalesce
// per destination peer into superframes.
func NewMux(conn transport.Conn) *Mux {
	m := &Mux{
		conn:   conn,
		self:   conn.Self(),
		co:     transport.NewCoalescer(conn),
		parked: make(map[uint32][]wire.Envelope),
	}
	empty := make(map[uint32]*laneConn)
	m.lanes.Store(&empty)
	conn.SetHandler(m.dispatch)
	conn.SetBatchHandler(m.dispatchBatch)
	return m
}

// Stats returns the attachment's counters: the mux's own, the coalescer's
// outbound view, and — when the transport tracks it (a
// transport.ResilientConn does) — the failure detector's table and the link
// counters.
func (m *Mux) Stats() Attachment {
	at := Attachment{
		ParkedDropped: m.parkedDropped.Load(),
		BatchesIn:     m.batchesIn.Load(),
		BatchedEnvsIn: m.batchedEnvsIn.Load(),
	}
	out := m.co.Stats()
	at.FramesSent, at.SuperframesSent, at.EnvelopesSent, at.EnvelopesLost = out.Frames, out.Superframes, out.Envelopes, out.Lost
	if hr, ok := m.conn.(transport.HealthReporter); ok {
		at.PeerHealth, at.Link = hr.PeerHealth(), hr.LinkStats()
	}
	return at
}

// Self returns the underlying node ID (shared by every lane).
func (m *Mux) Self() wire.NodeID { return m.self }

// SetAdmission installs the admission gate consulted for every inbound
// envelope (nil admits everything). The gate runs on the transport's
// producer goroutines and must be fast and concurrency-safe.
func (m *Mux) SetAdmission(gate AdmitFunc) {
	if gate == nil {
		m.admit.Store(nil)
		return
	}
	m.admit.Store(&gate)
}

// Lane opens lane and returns its virtual connection. Messages parked for
// the lane while it was closed are delivered first. Opening an open lane or
// a lane above wire.MaxLane is an error.
func (m *Mux) Lane(lane uint32) (transport.Conn, error) {
	if lane > wire.MaxLane {
		return nil, fmt.Errorf("market: lane %d out of range (max %d)", lane, wire.MaxLane)
	}
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return nil, transport.ErrClosed
	}
	old := *m.lanes.Load()
	if _, dup := old[lane]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("market: lane %d already open", lane)
	}
	// The lane's mailbox drops past laneInboxSize: what is sent to a lane
	// nobody has installed a handler on yet must not grow without bound.
	lc := &laneConn{mux: m, lane: lane}
	lc.box.Init(laneInboxSize, laneInboxSize)
	next := make(map[uint32]*laneConn, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[lane] = lc
	m.lanes.Store(&next)
	backlog := m.parked[lane]
	delete(m.parked, lane)
	m.parkedTotal -= len(backlog)
	m.mu.Unlock()
	for _, env := range backlog {
		lc.deliver(env)
	}
	return lc, nil
}

// closeLane detaches lc (laneConn.Close calls it) unless its lane number
// has been closed and reopened since. The underlying connection stays open
// for the other lanes.
func (m *Mux) closeLane(lc *laneConn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.lanes.Load()
	if old[lc.lane] != lc {
		return
	}
	next := make(map[uint32]*laneConn, len(old)-1)
	for k, v := range old {
		if k != lc.lane {
			next[k] = v
		}
	}
	m.lanes.Store(&next)
}

// Close shuts the mux, every lane and the underlying connection. Lane
// sends fail with ErrMuxClosed from here on; what they queued before ships
// ahead of the connection's close, except behind a ship the connection is
// holding (transport.Coalescer.Flush).
func (m *Mux) Close() error {
	var err error
	m.once.Do(func() {
		m.closed.Store(true)
		m.co.Flush()
		err = m.conn.Close()
		m.mu.Lock()
		lanes := *m.lanes.Load()
		empty := make(map[uint32]*laneConn)
		m.lanes.Store(&empty)
		m.parked = nil
		m.parkedTotal = 0
		m.mu.Unlock()
		for _, lc := range lanes {
			lc.box.Close()
		}
	})
	return err
}

// dispatch routes one inbound envelope to its lane: strip the lane from the
// tag, consult the admission gate, hand the envelope to the lane (or park
// it if the lane has not opened yet).
func (m *Mux) dispatch(env wire.Envelope) {
	lane := wire.LaneOf(env.Tag.Instance)
	env.Tag.Instance = wire.LaneInstance(env.Tag.Instance)
	if gate := m.admit.Load(); gate != nil && !(*gate)(lane, env) {
		return
	}
	if lc, ok := (*m.lanes.Load())[lane]; ok {
		lc.deliver(env)
		return
	}
	m.park(lane, env)
}

// dispatchBatch routes one inbound superframe in the producing goroutine:
// one wakeup for the whole batch, with the lane fan-out inside. Consecutive
// envelopes for the same lane are handed to it as one run, so a lane whose
// user ingests batches (proto.Peer does) pays one dispatch hop per run
// instead of one per envelope. The mux owns the slice (transports hand
// ownership over) and filters admission-rejected envelopes in place.
func (m *Mux) dispatchBatch(envs []wire.Envelope) {
	m.batchesIn.Inc()
	m.batchedEnvsIn.Add(int64(len(envs)))
	gate := m.admit.Load()
	i := 0
	for i < len(envs) {
		lane := wire.LaneOf(envs[i].Tag.Instance)
		j := i
		for j < len(envs) && wire.LaneOf(envs[j].Tag.Instance) == lane {
			j++
		}
		run := envs[i:j]
		for k := range run {
			run[k].Tag.Instance = wire.LaneInstance(run[k].Tag.Instance)
		}
		if gate != nil {
			kept := run[:0]
			for _, env := range run {
				if (*gate)(lane, env) {
					kept = append(kept, env)
				}
			}
			run = kept
		}
		if len(run) > 0 {
			if lc, ok := (*m.lanes.Load())[lane]; ok {
				lc.deliverBatch(run)
			} else {
				for _, env := range run {
					m.park(lane, env)
				}
			}
		}
		i = j
	}
}

// park buffers an envelope for a lane that is not open (yet). Bounded: a
// lane that never opens costs at most maxParkedPerLane envelopes, the whole
// mux at most maxParkedTotal.
func (m *Mux) park(lane uint32, env wire.Envelope) {
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return
	}
	// Re-check under the lock: Lane() may have opened it concurrently (it
	// registers the lane and drains parked under the same lock).
	if lc, ok := (*m.lanes.Load())[lane]; ok {
		m.mu.Unlock()
		lc.deliver(env)
		return
	}
	if len(m.parked[lane]) >= maxParkedPerLane || m.parkedTotal >= maxParkedTotal {
		m.mu.Unlock()
		// Drop — bid drops degrade to neutral, control traffic is retried —
		// but never silently: Market.Stats surfaces the counter.
		m.parkedDropped.Inc()
		return
	}
	m.parked[lane] = append(m.parked[lane], env)
	m.parkedTotal++
	m.mu.Unlock()
}

// laneConn is one lane's virtual transport.Conn. Sends stamp the lane into
// the tag; receives get lane-stripped envelopes from the mux. Close
// detaches the lane only — the shared underlying connection stays up.
type laneConn struct {
	mux  *Mux
	lane uint32
	box  transport.Mailbox
}

var _ transport.Conn = (*laneConn)(nil)

// Self returns the node ID shared by all lanes of the mux.
func (c *laneConn) Self() wire.NodeID { return c.mux.self }

// Lane returns the wire lane this virtual connection carries. proto.NewPeer
// detects it so every trace event of the lane's session is labelled with
// the auction it belongs to.
func (c *laneConn) Lane() uint32 { return c.lane }

// PeerDead forwards the transport's failure-detector verdict for id.
// proto.NewPeer detects it (like Lane) so a receive timeout on a crashed
// peer aborts as disconnect rather than plain timeout. Transports without
// health tracking report every peer alive.
func (c *laneConn) PeerDead(id wire.NodeID) bool {
	if hr, ok := c.mux.conn.(transport.HealthReporter); ok {
		return hr.PeerDead(id)
	}
	return false
}

// stamp checks that the lane may send and shifts it into env's tag. A
// block-local instance wider than wire.InstanceBits cannot be represented
// next to a lane and is rejected (the caller's round fails loudly instead
// of silently corrupting another lane's traffic). After Mux.Close every
// send fails with ErrMuxClosed; a lane closed on its own keeps returning
// transport.ErrClosed.
func (c *laneConn) stamp(env *wire.Envelope) error {
	if c.mux.closed.Load() {
		return ErrMuxClosed
	}
	if c.box.Closed() {
		return transport.ErrClosed
	}
	if env.Tag.Instance > wire.MaxInstance {
		return fmt.Errorf("market: instance %d overflows lane encoding (max %d)",
			env.Tag.Instance, wire.MaxInstance)
	}
	env.Tag.Instance = wire.JoinLane(c.lane, env.Tag.Instance)
	return nil
}

// sent names the real cause of a send that raced Mux.Close instead of
// whatever state the half-torn-down attachment produced.
func (c *laneConn) sent(err error) error {
	if err != nil && c.mux.closed.Load() {
		return ErrMuxClosed
	}
	return err
}

// Send stamps the lane into env's tag and transmits it through the mux's
// per-peer coalescer, so concurrent sends from any lanes to the same peer
// leave as one superframe.
func (c *laneConn) Send(env wire.Envelope) error {
	if err := c.stamp(&env); err != nil {
		return err
	}
	return c.sent(c.mux.co.Send(env))
}

// SendBatch stamps the lane into a copy of the batch (the caller's slice
// keeps its block-local instances) and ships it at once as one superframe.
func (c *laneConn) SendBatch(envs []wire.Envelope) error {
	out := append([]wire.Envelope(nil), envs...)
	for i := range out {
		if err := c.stamp(&out[i]); err != nil {
			return err
		}
	}
	return c.sent(c.mux.co.SendBatch(out))
}

// SetHandler implements transport.Conn.
func (c *laneConn) SetHandler(h transport.Handler) { c.box.SetHandler(h) }

// SetBatchHandler implements transport.Conn: h receives whole same-lane
// runs of a superframe in one call each.
func (c *laneConn) SetBatchHandler(h transport.BatchHandler) { c.box.SetBatchHandler(h) }

// deliver hands an inbound envelope to the lane. Before the lane's user has
// installed a handler (sessions do at open) a full mailbox drops — never
// silently: the drop is counted with the parking drops.
func (c *laneConn) deliver(env wire.Envelope) {
	if c.box.Deliver(env) {
		c.mux.parkedDropped.Inc()
	}
}

// deliverBatch hands a same-lane run of an inbound superframe to the lane.
func (c *laneConn) deliverBatch(envs []wire.Envelope) {
	if n := c.box.DeliverBatch(envs); n > 0 {
		c.mux.parkedDropped.Add(int64(n))
	}
}

// Close detaches the lane from the mux. Idempotent; the shared underlying
// connection is not touched (Mux.Close owns it).
func (c *laneConn) Close() error {
	c.mux.closeLane(c)
	c.box.Close()
	return nil
}
