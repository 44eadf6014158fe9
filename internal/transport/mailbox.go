package transport

import (
	"context"
	"sync"
	"sync/atomic"

	"distauction/internal/wire"
)

// connQueueCap is the pre-handler queue a transport conn (MemConn, TCPNode,
// ResilientConn) allocates at attach. Sessions install their handlers
// within microseconds, so in a running deployment the queues sit empty; the
// size is kept where it was because an idle 4096-slot queue per attachment
// is GC ballast on fig4-double-n1000 (ROADMAP finding (ii)): at 0 its
// round_p50_ms reads 81.5 → 102.9 ms (worse in 9 of 10 pairs), while every
// workload pays for the queues at set-up (setup_s fig4 0.578 → 0.236 s,
// fig5 0.058 → 0.030 s; EXPERIMENTS.md). On top of the Hub's delivery
// shards, 0 still reads fig4 round_p50_ms 27.19 → 30.69 ms (worse in 10 of
// 10 pairs) and rounds_per_s −7.0 %, fig5 p95 +2.3 % (worse in 9 of 10),
// setup_s fig4 0.164 → 0.064 s and fig5 0.030 → 0.021 s (EXPERIMENTS.md
// "Parallel Hub delivery"). Shrink it only together with the
// outcome-allocation cut.
const connQueueCap = 4096

// Mailbox is the receive half every Conn implementation holds: the two
// handler slots, the queue for envelopes that arrive before a handler is
// installed, and the exactly-once handoff when SetHandler races deliveries.
// The owner's receive machinery calls Deliver/DeliverBatch; the owner's
// SetHandler, SetBatchHandler and Close forward here. No producer ever
// waits on a mailbox, and a mailbox starts no goroutine.
type Mailbox struct {
	handler atomic.Pointer[Handler]
	batch   atomic.Pointer[BatchHandler]
	closed  atomic.Bool

	// mu guards the queue and orders the handoff: SetHandler installs the
	// handler and drains the queue under it, and Deliver re-checks for a
	// handler under it before queueing.
	mu    sync.Mutex
	queue []wire.Envelope
	limit int
	wake  chan struct{} // capacity 1: an envelope was queued, or Close
}

// Init readies m, once, before its first use. The pre-handler queue is
// preallocated for capacity envelopes. With limit zero (a transport) every
// envelope that arrives before a handler is queued; with limit above zero
// (a multiplexed lane, where one unopened lane must not hold the shared
// attachment's memory) those past limit are dropped, and Deliver reports
// it. Owners hold a Mailbox by value, so the handler slots sit in the
// owner's own memory, one load away on the delivery path.
func (m *Mailbox) Init(capacity, limit int) {
	m.queue = make([]wire.Envelope, 0, capacity)
	m.limit = limit
	m.wake = make(chan struct{}, 1)
}

// SetHandler installs h for single envelopes and hands it, before it
// returns, whatever queued up before it. The queued envelopes reach h under
// m.mu, which is what makes the handoff exactly-once (see park); h must not
// install a handler on this mailbox. Deliveries that find h installed run
// it without the lock, alongside the drain.
func (m *Mailbox) SetHandler(h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handler.Store(&h)
	for i := 0; i < len(m.queue) && !m.closed.Load(); i++ {
		h(m.queue[i])
	}
	clear(m.queue) // unpin the payloads; the backing array stays
	m.queue = m.queue[:0]
}

// SetBatchHandler installs h for whole batches; without one a batch is
// delivered envelope by envelope.
func (m *Mailbox) SetBatchHandler(h BatchHandler) { m.batch.Store(&h) }

// Close stops delivery: a Deliver that begins after Close returns reaches
// no handler. It does not wait for handler calls already running on other
// goroutines. Idempotent.
func (m *Mailbox) Close() {
	m.closed.Store(true)
	m.signal()
}

// Closed reports whether Close has been called.
func (m *Mailbox) Closed() bool { return m.closed.Load() }

// Deliver hands env to the handler on the calling goroutine, or queues it
// while none is installed. It reports true only when a mailbox with a
// limit dropped env because its queue was full.
func (m *Mailbox) Deliver(env wire.Envelope) (overflow bool) {
	h := m.handler.Load()
	if h == nil {
		if h, overflow = m.park(env); h == nil {
			return overflow
		}
	}
	if !m.closed.Load() {
		(*h)(env)
	}
	return false
}

// park queues env unless SetHandler has installed a handler since Deliver
// looked, and returns that handler: the check and the enqueue share m.mu
// with SetHandler's install and drain, so each envelope reaches the handler
// exactly once, from the drain or from Deliver.
func (m *Mailbox) park(env wire.Envelope) (h *Handler, overflow bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.handler.Load(); h != nil || m.closed.Load() {
		return h, false
	}
	if m.limit > 0 && len(m.queue) >= m.limit {
		return nil, true
	}
	m.queue = append(m.queue, env)
	m.signal()
	return nil, false
}

// signal wakes one Recv, or the next to wait.
func (m *Mailbox) signal() {
	select {
	case m.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// DeliverBatch hands a whole batch to the batch handler in one call, or
// envelope by envelope through Deliver while none is installed. A batch of
// one is a single envelope and goes to Deliver, whatever frame carried it.
// It returns how many envelopes Deliver dropped.
func (m *Mailbox) DeliverBatch(envs []wire.Envelope) (overflow int) {
	if bh := m.batch.Load(); bh != nil && len(envs) > 1 {
		if !m.closed.Load() {
			(*bh)(envs)
		}
		return 0
	}
	for i := range envs {
		if m.Deliver(envs[i]) {
			overflow++
		}
	}
	return overflow
}

// Recv waits for the next queued envelope, the context, or Close. It is the
// pull-style receive of a mailbox that has no handler (see Pull).
func (m *Mailbox) Recv(ctx context.Context) (wire.Envelope, error) {
	// Pass the wake-up on: a Recv on another goroutine may be waiting for
	// what is left, or for Close. A spare one costs a waiter one more look.
	defer m.signal()
	for {
		m.mu.Lock()
		if len(m.queue) > 0 && !m.closed.Load() {
			env := m.queue[0]
			m.queue[0] = wire.Envelope{}
			m.queue = m.queue[1:]
			m.mu.Unlock()
			return env, nil
		}
		m.mu.Unlock()
		if m.closed.Load() {
			return wire.Envelope{}, ErrClosed
		}
		select {
		case <-m.wake:
		case <-ctx.Done():
			return wire.Envelope{}, ctx.Err()
		}
	}
}

// Pull points conn's handlers at a fresh mailbox and returns it, for
// consumers that want to receive by calling Recv — tests, mostly; every
// protocol layer installs handlers. With no batch handler installed on
// conn, batches arrive envelope by envelope; a mailbox nobody reads queues
// whatever conn delivers.
func Pull(conn Conn) *Mailbox {
	m := new(Mailbox)
	m.Init(connQueueCap, 0)
	conn.SetHandler(func(env wire.Envelope) { m.Deliver(env) })
	return m
}
