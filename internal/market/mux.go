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
	"context"
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

	// out is the send path: a transport.Coalescer over conn when the
	// transport can batch (all lanes' sends then coalesce per destination
	// peer into superframes), conn itself otherwise.
	out transport.Conn
	// co is out's coalescer, nil when the transport cannot batch.
	co *transport.Coalescer

	// lanes is copy-on-write: dispatch (the per-message hot path, possibly
	// many producer goroutines on a push transport) reads it with one atomic
	// load; mu guards mutation.
	lanes atomic.Pointer[map[uint32]*laneConn]
	admit atomic.Pointer[AdmitFunc]

	mu          sync.Mutex
	parked      map[uint32][]wire.Envelope
	parkedTotal int

	// parkedDropped counts envelopes dropped because parking overflowed —
	// the previously silent loss Market.Stats now surfaces.
	parkedDropped metrics.Counter
	// batchesIn / batchedEnvsIn count inbound superframes and the envelopes
	// they carried (receive-side occupancy).
	batchesIn     metrics.Counter
	batchedEnvsIn metrics.Counter

	closed   atomic.Bool
	done     chan struct{}
	loopDone chan struct{}
	once     sync.Once
}

// NewMux wraps conn. On a transport.PushConn inbound envelopes are
// dispatched to lanes directly in the producing goroutines (lanes then run
// in parallel); whole superframes are dispatched in ONE call with the lane
// fan-out inside (transport.PushBatchConn); otherwise a pump goroutine
// drains Recv. On a transport.BatchConn, sends from all lanes coalesce per
// destination peer into superframes.
func NewMux(conn transport.Conn) *Mux {
	m := &Mux{
		conn:     conn,
		self:     conn.Self(),
		parked:   make(map[uint32][]wire.Envelope),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	m.out = transport.Coalesce(conn)
	if co, ok := m.out.(*transport.Coalescer); ok {
		m.co = co
	}
	empty := make(map[uint32]*laneConn)
	m.lanes.Store(&empty)
	if pc, ok := conn.(transport.PushConn); ok {
		close(m.loopDone)
		pc.SetHandler(m.dispatch)
		if pbc, ok := conn.(transport.PushBatchConn); ok {
			pbc.SetBatchHandler(m.dispatchBatch)
		}
	} else {
		go m.pump()
	}
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
	if m.co != nil {
		out := m.co.Stats()
		at.FramesSent, at.SuperframesSent, at.EnvelopesSent = out.Frames, out.Superframes, out.Envelopes
	}
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
	lc := &laneConn{
		mux:   m,
		lane:  lane,
		inbox: make(chan wire.Envelope, laneInboxSize),
		done:  make(chan struct{}),
	}
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

// closeLane detaches lane (laneConn.Close calls it). The underlying
// connection stays open for the other lanes.
func (m *Mux) closeLane(lane uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.lanes.Load()
	if _, ok := old[lane]; !ok {
		return
	}
	next := make(map[uint32]*laneConn, len(old)-1)
	for k, v := range old {
		if k != lane {
			next[k] = v
		}
	}
	m.lanes.Store(&next)
}

// Close shuts the mux and the underlying connection; every lane's pending
// Recv fails with transport.ErrClosed.
func (m *Mux) Close() error {
	var err error
	m.once.Do(func() {
		m.closed.Store(true)
		close(m.done)
		err = m.conn.Close()
		<-m.loopDone
		m.mu.Lock()
		lanes := *m.lanes.Load()
		empty := make(map[uint32]*laneConn)
		m.lanes.Store(&empty)
		m.parked = nil
		m.parkedTotal = 0
		m.mu.Unlock()
		for _, lc := range lanes {
			lc.markClosed()
		}
	})
	return err
}

// pump is the Recv fallback for non-push transports.
func (m *Mux) pump() {
	defer close(m.loopDone)
	ctx := context.Background()
	for {
		env, err := m.conn.Recv(ctx)
		if err != nil {
			return
		}
		m.dispatch(env)
	}
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
	mux          *Mux
	lane         uint32
	handler      atomic.Pointer[transport.Handler]
	batchHandler atomic.Pointer[transport.BatchHandler]
	inbox        chan wire.Envelope

	closeOnce sync.Once
	done      chan struct{}
}

var (
	_ transport.Conn          = (*laneConn)(nil)
	_ transport.PushConn      = (*laneConn)(nil)
	_ transport.PushBatchConn = (*laneConn)(nil)
)

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

// Send stamps the lane into env's tag and transmits it on the shared
// connection — through the mux's per-peer coalescer when the transport can
// batch, so concurrent sends from any lanes to the same peer leave as one
// superframe. A block-local instance wider than wire.InstanceBits cannot be
// represented next to a lane and is rejected (the caller's round fails
// loudly instead of silently corrupting another lane's traffic). After
// Mux.Close every send fails with ErrMuxClosed; a lane closed on its own
// keeps returning transport.ErrClosed.
func (c *laneConn) Send(env wire.Envelope) error {
	if c.mux.closed.Load() {
		return ErrMuxClosed
	}
	select {
	case <-c.done:
		return transport.ErrClosed
	default:
	}
	if env.Tag.Instance > wire.MaxInstance {
		return fmt.Errorf("market: instance %d overflows lane encoding (max %d)",
			env.Tag.Instance, wire.MaxInstance)
	}
	env.Tag.Instance = wire.JoinLane(c.lane, env.Tag.Instance)
	err := c.mux.out.Send(env)
	if err != nil && c.mux.closed.Load() {
		// The send raced Mux.Close; name the real cause instead of whatever
		// state the half-torn-down lane table produced.
		return ErrMuxClosed
	}
	return err
}

// Recv blocks for the lane's next envelope.
func (c *laneConn) Recv(ctx context.Context) (wire.Envelope, error) {
	select {
	case env := <-c.inbox:
		return env, nil
	case <-ctx.Done():
		return wire.Envelope{}, ctx.Err()
	case <-c.done:
		select {
		case env := <-c.inbox:
			return env, nil
		default:
			return wire.Envelope{}, transport.ErrClosed
		}
	}
}

// SetHandler switches the lane to push delivery (see transport.PushConn).
func (c *laneConn) SetHandler(h transport.Handler) {
	c.handler.Store(&h)
	c.drainInto(&h)
}

// SetBatchHandler installs a handler receiving whole same-lane runs of a
// superframe in one call each (see transport.PushBatchConn).
func (c *laneConn) SetBatchHandler(h transport.BatchHandler) {
	c.batchHandler.Store(&h)
}

func (c *laneConn) drainInto(h *transport.Handler) {
	for {
		select {
		case env := <-c.inbox:
			(*h)(env)
		default:
			return
		}
	}
}

// deliver hands an inbound envelope to the lane — directly into the handler
// in push mode, into the inbox otherwise (same handoff discipline as
// transport.MemConn.push).
func (c *laneConn) deliver(env wire.Envelope) {
	if h := c.handler.Load(); h != nil {
		select {
		case <-c.done:
			return
		default:
		}
		(*h)(env)
		return
	}
	select {
	case <-c.done:
		return
	case c.inbox <- env:
	default:
		// Inbox full before any handler was installed: drop. Sessions
		// install their handler at open, so this only guards a pathological
		// flood in the microseconds between Lane() and OpenSession.
		return
	}
	if h := c.handler.Load(); h != nil {
		c.drainInto(h)
	}
}

// deliverBatch hands a same-lane run of an inbound superframe to the lane —
// one call into the batch handler when installed (proto.Peer's batch
// ingest), envelope by envelope otherwise.
func (c *laneConn) deliverBatch(envs []wire.Envelope) {
	if bh := c.batchHandler.Load(); bh != nil {
		select {
		case <-c.done:
			return
		default:
		}
		(*bh)(envs)
		return
	}
	for _, env := range envs {
		c.deliver(env)
	}
}

// Close detaches the lane from the mux. Idempotent; the shared underlying
// connection is not touched (Mux.Close owns it).
func (c *laneConn) Close() error {
	c.closeOnce.Do(func() {
		c.mux.closeLane(c.lane)
		close(c.done)
	})
	return nil
}

// markClosed is Mux.Close's teardown path (the lane map is already empty).
func (c *laneConn) markClosed() {
	c.closeOnce.Do(func() { close(c.done) })
}
