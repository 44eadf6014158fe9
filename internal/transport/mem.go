package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/wire"
)

// LatencyModel computes the one-way delay of a message. The defaults in
// CommunityNetModel approximate a community wireless mesh: a couple of
// milliseconds of base latency and roughly 10 MB/s of throughput.
type LatencyModel struct {
	// Base is the fixed per-message delay.
	Base time.Duration
	// PerByte is the serialisation delay per payload byte.
	PerByte time.Duration
	// Jitter is the upper bound of a uniform random extra delay.
	Jitter time.Duration
}

// CommunityNetModel returns a latency model calibrated to a community
// network link (≈2 ms base, ≈10 MB/s, 1 ms jitter). See EXPERIMENTS.md for
// the calibration rationale.
func CommunityNetModel() LatencyModel {
	return LatencyModel{Base: 2 * time.Millisecond, PerByte: 100 * time.Nanosecond, Jitter: time.Millisecond}
}

// Delay computes the delay for a message of n bytes, drawing jitter from rng.
func (m LatencyModel) Delay(n int, rng *rand.Rand) time.Duration {
	d := m.Base + time.Duration(n)*m.PerByte
	if m.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(m.Jitter)))
	}
	return d
}

// Zero reports whether the model introduces no delay at all.
func (m LatencyModel) Zero() bool {
	return m.Base == 0 && m.PerByte == 0 && m.Jitter == 0
}

// Hub is an in-process message switch connecting MemConns. The routing
// table is copy-on-write: route reads it with one atomic load, so
// concurrent senders never contend on a hub-wide lock (the lock only guards
// attachment, shutdown, the jitter RNG and the delivery scheduler's heap).
type Hub struct {
	model LatencyModel
	seed  int64

	nodes  atomic.Pointer[map[wire.NodeID]*MemConn]
	closed atomic.Bool

	// faults is nil until a fault, partition or kill is first set: a Hub
	// without one pays this load per hop and nothing else.
	faults atomic.Pointer[faultModel]

	mu  sync.Mutex
	rng *rand.Rand

	stats Stats

	sched scheduler
}

// NewHub creates a hub with the given latency model. The seed makes jitter
// and injected faults reproducible; runs remain nondeterministic at the
// goroutine-scheduling level, which is intended (the protocol must tolerate
// any fair schedule).
func NewHub(model LatencyModel, seed int64) *Hub {
	h := &Hub{
		model: model,
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		sched: scheduler{epoch: time.Now()},
	}
	empty := make(map[wire.NodeID]*MemConn)
	h.nodes.Store(&empty)
	return h
}

// Stats returns hub-wide traffic counters.
func (h *Hub) Stats() StatsSnapshot { return h.stats.Snapshot() }

// Attach registers a node and returns its connection. Attaching an already
// attached ID is a configuration error.
func (h *Hub) Attach(id wire.NodeID) (Conn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		return nil, ErrClosed
	}
	old := *h.nodes.Load()
	if _, dup := old[id]; dup {
		return nil, fmt.Errorf("transport: node %d already attached", id)
	}
	c := &MemConn{hub: h, id: id}
	c.box.Init(connQueueCap, 0)
	next := make(map[wire.NodeID]*MemConn, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = c
	h.nodes.Store(&next)
	return c, nil
}

// Close shuts the hub and all attached connections and drops every
// delivery still waiting out its delay. It returns once the delivery loop
// has exited — unless the loop is handing out deliveries, in which case a
// handler call may already be running (it may be the one calling Close) and
// the loop exits as soon as that call returns, starting no other.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed.Swap(true) {
		h.mu.Unlock()
		return nil
	}
	nodes := *h.nodes.Load()
	conns := make([]*MemConn, 0, len(nodes))
	for _, c := range nodes {
		conns = append(conns, c)
	}
	h.sched.pending = nil
	loop := h.sched.done
	if loop != nil {
		h.wakeLoop()
	}
	h.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	if loop != nil && !h.sched.dispatching.Load() {
		<-loop
	}
	return nil
}

// route carries one hop from→to — env, or the superframe batch when that
// is non-nil — of n envelopes and size payload bytes. A superframe is one
// hop: the latency model charges it once (base + jitter once,
// serialisation on the total bytes), the fault model judges it whole, and
// it arrives in one push — the amortisation a real link gets from writing
// one frame. The fault model's verdict comes first, when one is installed:
// a dropped hop is gone, a duplicate is a second hop, and a fault delay
// adds to the modelled one. A hop with no delay arrives on the sender's
// goroutine, any other through the delivery scheduler.
func (h *Hub) route(env *wire.Envelope, batch []wire.Envelope, from, to wire.NodeID, n, size int) error {
	if h.closed.Load() {
		return ErrClosed
	}
	dst, ok := (*h.nodes.Load())[to]
	if !ok {
		// Unknown destination: the reliable-channels assumption only covers
		// configured nodes; a message to nobody is a programming error.
		return fmt.Errorf("transport: unknown destination %d", to)
	}
	copies, extra := 1, time.Duration(0)
	if f := h.faults.Load(); f != nil {
		copies, extra = f.judge(from, to, n)
	}
	deferred := extra > 0 || !h.model.Zero()
	for ; copies > 0; copies-- {
		h.stats.MsgsSent.Add(int64(n))
		h.stats.BytesSent.Add(int64(size))
		hop := batch
		if batch != nil && (deferred || copies > 1) {
			// A deferred hop outlives SendBatch, whose caller recycles the
			// slice the moment it returns, and a duplicate must not see what
			// the first copy's batch handler did to it: each carries its own
			// copy (the analogue of serialising onto the wire).
			hop = append([]wire.Envelope(nil), batch...)
		}
		if deferred {
			d := delivery{dst: dst, batch: hop}
			if hop == nil {
				d.env = *env
			}
			queued, err := h.later(&d, size, extra)
			if err != nil {
				return err
			}
			if queued {
				continue
			}
		}
		dst.push(env, hop)
	}
	return nil
}

// MemConn is a node's attachment to a Hub.
type MemConn struct {
	hub *Hub
	id  wire.NodeID
	box Mailbox

	stats Stats
}

var _ Conn = (*MemConn)(nil)

// Self returns the local node ID.
func (c *MemConn) Self() wire.NodeID { return c.id }

// Stats returns per-connection traffic counters.
func (c *MemConn) Stats() StatsSnapshot { return c.stats.Snapshot() }

// Send queues env for delivery.
func (c *MemConn) Send(env wire.Envelope) error {
	if c.box.Closed() {
		return ErrClosed
	}
	if env.From != c.id {
		return fmt.Errorf("transport: sending as %d from conn %d", env.From, c.id)
	}
	c.stats.MsgsSent.Add(1)
	c.stats.BytesSent.Add(int64(len(env.Payload)))
	return c.hub.route(&env, nil, c.id, env.To, 1, len(env.Payload))
}

// SendBatch queues a whole superframe — envelopes for ONE destination — for
// delivery as a single frame: one latency-model event, one push.
func (c *MemConn) SendBatch(envs []wire.Envelope) error {
	if c.box.Closed() {
		return ErrClosed
	}
	if len(envs) == 0 {
		return nil
	}
	size := 0
	for i := range envs {
		if envs[i].From != c.id {
			return fmt.Errorf("transport: sending as %d from conn %d", envs[i].From, c.id)
		}
		if envs[i].To != envs[0].To {
			return fmt.Errorf("transport: superframe mixes destinations %d and %d", envs[0].To, envs[i].To)
		}
		size += len(envs[i].Payload)
	}
	c.stats.MsgsSent.Add(int64(len(envs)))
	c.stats.BytesSent.Add(int64(size))
	return c.hub.route(nil, envs, c.id, envs[0].To, len(envs), size)
}

// Close detaches the connection. Messages already queued are dropped.
func (c *MemConn) Close() error {
	c.box.Close()
	return nil
}

// SetHandler implements Conn: envelopes go to h in the producing goroutine
// (the sender, or the Hub's delivery scheduler).
func (c *MemConn) SetHandler(h Handler) { c.box.SetHandler(h) }

// SetBatchHandler implements Conn.
func (c *MemConn) SetBatchHandler(h BatchHandler) { c.box.SetBatchHandler(h) }

// push delivers one inbound hop: env, or the superframe batch when that is
// non-nil.
func (c *MemConn) push(env *wire.Envelope, batch []wire.Envelope) {
	if batch == nil {
		c.stats.MsgsReceived.Add(1)
		c.stats.BytesReceived.Add(int64(len(env.Payload)))
		c.box.Deliver(*env)
		return
	}
	size := 0
	for i := range batch {
		size += len(batch[i].Payload)
	}
	c.stats.MsgsReceived.Add(int64(len(batch)))
	c.stats.BytesReceived.Add(int64(size))
	c.box.DeliverBatch(batch)
}
