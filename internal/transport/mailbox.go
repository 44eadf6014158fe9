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

	// overflow holds, oldest first, what producers that must not wait
	// found no room for in a blocking mailbox's queue (see deliver); while
	// it is non-empty one goroutine, move, feeds it into the queue.
	mu       sync.Mutex
	overflow []wire.Envelope
}

// Init readies m, once, before its first use: the pre-handler queue holds
// capacity envelopes, and when it is full and no handler is installed yet,
// block decides between holding the envelope until there is room (a
// transport: back-pressure onto the link, or, where the producer must not
// wait, onto the overflow list — see deliver) and dropping it (a
// multiplexed lane: one unopened lane must not stall the shared
// attachment). Owners hold a Mailbox by value, so the handler slots
// sit in the owner's own memory, one load away on the delivery path.
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
// mailbox dropped env because its queue was full; a blocking one holds the
// caller until there is room.
func (m *Mailbox) Deliver(env wire.Envelope) (overflow bool) { return m.deliver(env, true) }

// deliver is Deliver with the caller choosing whether a blocking mailbox's
// full queue may hold it (wait) or not: a producer that serves many
// mailboxes — the Hub's delivery scheduler, another conn's handler — must
// never park on one, so its envelope joins the mailbox's overflow list
// instead, which one goroutine per stalled mailbox moves into the queue as
// room appears. Without a handler, env is queued; when the queue is full, a
// non-blocking mailbox drops env, and a blocking one holds it until there
// is room: in this call if wait is set, on the overflow list otherwise.
func (m *Mailbox) deliver(env wire.Envelope, wait bool) (overflow bool) {
	if h := m.handler.Load(); h != nil {
		if !m.Closed() {
			(*h)(env)
		}
		return false
	}
	if !wait && m.block && m.spill(&env, false) {
		return false // behind envelopes already waiting for room
	}
	select {
	case <-m.done:
		return false
	case m.queue <- env:
	default:
		if !m.block {
			return true
		}
		if !wait {
			m.spill(&env, true)
			return false
		}
		select {
		case m.queue <- env:
		case <-m.done:
			return false
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

// spill appends env to the overflow list — if full, or else only when the
// list already holds envelopes, which env must not overtake — and reports
// whether it did. The first envelope on an empty list starts move.
func (m *Mailbox) spill(env *wire.Envelope, full bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !full && len(m.overflow) == 0 {
		return false
	}
	m.overflow = append(m.overflow, *env)
	if len(m.overflow) == 1 {
		go m.move()
	}
	return true
}

// move delivers the overflow list oldest first, waiting for room in the
// queue (or for a handler, or Close) for each, and exits when the list is
// empty. An envelope leaves the list only once delivered, so the list stays
// non-empty — and no second mover starts — while one is in flight.
func (m *Mailbox) move() {
	m.mu.Lock()
	for len(m.overflow) > 0 {
		env := m.overflow[0]
		m.mu.Unlock()
		m.Deliver(env)
		m.mu.Lock()
		m.overflow[0] = wire.Envelope{}
		m.overflow = m.overflow[1:]
	}
	m.overflow = nil
	m.mu.Unlock()
}

// DeliverBatch hands a whole batch to the batch handler in one call, or
// envelope by envelope through Deliver while none is installed. It returns
// how many envelopes Deliver dropped.
func (m *Mailbox) DeliverBatch(envs []wire.Envelope) (overflow int) {
	return m.deliverBatch(envs, true)
}

// deliverBatch is DeliverBatch with deliver's wait.
func (m *Mailbox) deliverBatch(envs []wire.Envelope, wait bool) (overflow int) {
	if bh := m.batch.Load(); bh != nil {
		if !m.Closed() {
			(*bh)(envs)
		}
		return 0
	}
	for i := range envs {
		if m.deliver(envs[i], wait) {
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
// A mailbox nobody reads never holds conn's producer: past connQueueCap
// envelopes the rest wait on its overflow list for a reader (or Close).
func Pull(conn Conn) *Mailbox {
	m := new(Mailbox)
	m.Init(connQueueCap, true)
	conn.SetHandler(func(env wire.Envelope) { m.deliver(env, false) })
	conn.SetBatchHandler(func(envs []wire.Envelope) { m.deliverBatch(envs, false) })
	return m
}
