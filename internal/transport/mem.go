package transport

import (
	"fmt"
	"math/rand"
	"runtime"
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
// concurrent senders never contend on a hub-wide lock. The lock guards
// attachment, shutdown and the fault model's installation; a delayed hop
// takes only its destination's delivery shard's lock, which guards that
// shard's jitter RNG and heap.
type Hub struct {
	model LatencyModel
	seed  int64
	epoch time.Time // the delivery shards' shared clock starts here

	nodes  atomic.Pointer[map[wire.NodeID]*MemConn]
	closed atomic.Bool

	// faults is nil until a fault, partition or kill is first set: a Hub
	// without one pays this load per hop and nothing else.
	faults atomic.Pointer[faultModel]

	mu sync.Mutex

	stats Stats

	// shards are the delivery schedulers, runtime.GOMAXPROCS(0) of them,
	// read once here: so many loops can run handlers at the same time.
	// On a 2-vCPU host, two of them take fig4-double-n1000's round_p50_ms
	// down 9.0 % (seed 1) and 7.5 % (seed 7) against one loop per Hub.
	// Per hop they cost more: BenchmarkHubDelayedDelivery/fanout (8
	// senders flooding 1000 destinations, 1 µs base delay, no handler
	// work) reads 148 ns per hop with one loop per Hub and 221 ns with two
	// shards, medians of six interleaved runs (EXPERIMENTS.md "Parallel Hub
	// delivery").
	shards []deliveryShard
}

// NewHub creates a hub with the given latency model. The seed makes jitter
// and injected faults reproducible; runs remain nondeterministic at the
// goroutine-scheduling level, which is intended (the protocol must tolerate
// any fair schedule).
func NewHub(model LatencyModel, seed int64) *Hub {
	h := &Hub{
		model:  model,
		seed:   seed,
		epoch:  time.Now(),
		shards: make([]deliveryShard, runtime.GOMAXPROCS(0)),
	}
	for i := range h.shards {
		h.shards[i].rng = rand.New(rand.NewSource(jitterSeed(seed, i)))
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
	// Round-robin in attach order (the node table only grows): every hop to
	// c leaves from one heap, in (due, seq) order.
	c := &MemConn{hub: h, id: id, shard: &h.shards[len(old)%len(h.shards)]}
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
// delivery still waiting out its delay. It returns once every delivery loop
// has exited — except a loop that is handing out deliveries: a handler call
// may be running there (it may be the one calling Close), and that loop
// exits as soon as the call returns, starting no other.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed.Swap(true) {
		h.mu.Unlock()
		return nil
	}
	nodes := *h.nodes.Load()
	h.mu.Unlock()
	// A later that takes a shard's lock after this sweep sees h.closed; one
	// that took it before has queued its hop, which the sweep drops.
	var loops []*deliveryShard
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		s.pending = nil
		if s.done != nil {
			s.wakeLoop()
			loops = append(loops, s)
		}
		s.mu.Unlock()
	}
	for _, c := range nodes {
		_ = c.Close()
	}
	for _, s := range loops {
		if !s.dispatching.Load() {
			<-s.done
		}
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
// goroutine, any other through the destination's delivery shard.
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
	hub   *Hub
	id    wire.NodeID
	box   Mailbox
	shard *deliveryShard // where every delayed hop to this conn waits

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
// (the sender, or this conn's delivery shard).
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
