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
// is measurable GC ballast on fig4-double-n1000 (ROADMAP finding (vi)):
// shrink it only together with the outcome-allocation cut.
const connQueueCap = 4096

// Mailbox is the receive half every Conn implementation holds: the two
// handler slots, the queue for envelopes that arrive before a handler is
// installed, and the exactly-once handoff when SetHandler races deliveries.
// The owner's receive machinery calls Deliver/DeliverBatch; the owner's
// SetHandler, SetBatchHandler and Close forward here.
type Mailbox struct {
	handler atomic.Pointer[Handler]
	batch   atomic.Pointer[BatchHandler]
	queue   chan wire.Envelope
	block   bool
	done    chan struct{}
	once    sync.Once
}

// Init readies m, once, before its first use: the pre-handler queue holds
// capacity envelopes, and when it is full and no handler is installed yet,
// block decides between holding the producer until there is room (a
// transport: back-pressure onto the link) and dropping the envelope (a
// multiplexed lane: one unopened lane must not stall the shared
// attachment). Owners hold a Mailbox by value, so the handler slots sit in
// the owner's own memory, one load away on the delivery path.
func (m *Mailbox) Init(capacity int, block bool) {
	m.queue = make(chan wire.Envelope, capacity)
	m.block = block
	m.done = make(chan struct{})
}

// SetHandler installs h for single envelopes and drains whatever queued up
// before it into h.
func (m *Mailbox) SetHandler(h Handler) {
	m.handler.Store(&h)
	m.drain(&h)
}

// SetBatchHandler installs h for whole batches; without one a batch is
// delivered envelope by envelope.
func (m *Mailbox) SetBatchHandler(h BatchHandler) { m.batch.Store(&h) }

// Close stops delivery: a Deliver that begins after Close returns reaches
// no handler. It does not wait for handler calls already running on other
// goroutines. Idempotent.
func (m *Mailbox) Close() { m.once.Do(func() { close(m.done) }) }

// Closed reports whether Close has been called.
func (m *Mailbox) Closed() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Deliver hands env to the handler on the calling goroutine, or queues it
// while none is installed. It reports true only when a non-blocking
// mailbox dropped env because its queue was full.
//
// The handler path is kept apart from enqueue's selects on purpose: a
// delayed Hub delivery runs on a fresh timer goroutine, and with the select
// state in this frame the call chain into the protocol outgrew that
// goroutine's initial stack — one stack copy per delivery, ≈ 5 % of
// fig4-double-n1000's throughput.
func (m *Mailbox) Deliver(env wire.Envelope) (overflow bool) {
	if h := m.handler.Load(); h != nil {
		if !m.Closed() {
			(*h)(env)
		}
		return false
	}
	return m.enqueue(&env)
}

// enqueue queues env for a handler that is not installed yet.
func (m *Mailbox) enqueue(env *wire.Envelope) (overflow bool) {
	if m.block {
		select {
		case m.queue <- *env:
		case <-m.done:
			return false
		}
	} else {
		select {
		case <-m.done:
			return false
		case m.queue <- *env:
		default:
			return true
		}
	}
	// A handler installed between Deliver's nil check and the enqueue will
	// never look at the queue again, so re-check and drain: either
	// SetHandler's own drain ran after our enqueue and took the envelope, or
	// we find the handler here and drain it ourselves. Each queued envelope
	// is channel-received, and thus dispatched, exactly once.
	if h := m.handler.Load(); h != nil {
		m.drain(h)
	}
	return false
}

// DeliverBatch hands a whole batch to the batch handler in one call, or
// envelope by envelope through Deliver while none is installed. It returns
// how many envelopes Deliver dropped.
func (m *Mailbox) DeliverBatch(envs []wire.Envelope) (overflow int) {
	if bh := m.batch.Load(); bh != nil {
		if !m.Closed() {
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

// drain empties the queue into h. Safe to call concurrently.
func (m *Mailbox) drain(h *Handler) {
	for !m.Closed() {
		select {
		case env := <-m.queue:
			(*h)(env)
		default:
			return
		}
	}
}

// Recv blocks for the next queued envelope, the context, or Close. It is
// the pull-style receive of a mailbox that has no handler (see Pull).
func (m *Mailbox) Recv(ctx context.Context) (wire.Envelope, error) {
	select {
	case env := <-m.queue:
		return env, nil
	case <-ctx.Done():
		return wire.Envelope{}, ctx.Err()
	case <-m.done:
		return wire.Envelope{}, ErrClosed
	}
}

// Pull points conn's handlers at a fresh mailbox and returns it, for
// consumers that want to receive by calling Recv — tests, mostly; every
// protocol layer installs handlers. Batches arrive envelope by envelope.
func Pull(conn Conn) *Mailbox {
	m := new(Mailbox)
	m.Init(connQueueCap, true)
	conn.SetHandler(func(env wire.Envelope) { m.Deliver(env) })
	conn.SetBatchHandler(func(envs []wire.Envelope) { m.DeliverBatch(envs) })
	return m
}
