package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/wire"
)

// delivery is one modelled hop waiting in a delivery shard: a single
// envelope, or (batch non-nil) the Hub's own copy of a superframe.
type delivery struct {
	due   time.Duration // monotonic, since the Hub's epoch
	seq   uint64        // equal due times leave in the order they were sent
	dst   *MemConn
	env   wire.Envelope
	batch []wire.Envelope
}

func (d *delivery) before(o *delivery) bool {
	return d.due < o.due || (d.due == o.due && d.seq < o.seq)
}

// deliveryShard is one of a Hub's delivery schedulers, one per core: every
// delayed hop to the MemConns attached to it, whether the latency model or
// the fault model delayed it, waits in its min-heap, and its goroutine —
// started by its first delayed hop — sleeps on one reusable timer until the
// head is due, then hands out everything due in (due, seq) order. A conn
// belongs to one shard, so its hops leave in that order; hops to conns on
// different shards are handed out in parallel, as deliveries to separate
// nodes are. One heap and one loop per shard, where a timer and a goroutine
// per envelope cost fig4-double-n1000 a fifth of its throughput (ROADMAP
// finding (iii)), and one loop per Hub made each round's 16 000 hops queue
// behind one goroutine (finding (xvi)). Everything but dispatching is
// guarded by mu.
type deliveryShard struct {
	mu      sync.Mutex
	rng     *rand.Rand // the latency model's jitter for hops to this shard
	pending []delivery // binary min-heap on before
	seq     uint64
	wake    chan struct{} // capacity 1; a new head was pushed, or Close
	done    chan struct{} // nil until the loop starts; closed when it exits

	// dispatching is set while the loop hands out due hops: Hub.Close then
	// returns without waiting for this loop, which may be running the very
	// handler that called it.
	dispatching atomic.Bool
}

// jitterSeed is the seed of shard i's jitter stream: the Hub's seed itself
// for shard 0, so a one-core Hub draws what a single scheduler did.
func jitterSeed(seed int64, i int) int64 {
	return seed ^ int64(i)*0x2545F4914F6CDD1D
}

// push adds d to the heap and reports whether it became the head. The heap
// is written out rather than built on container/heap, whose Push boxes
// every entry in an interface: one allocation per hop.
func (s *deliveryShard) push(d *delivery) bool {
	s.seq++
	d.seq = s.seq
	s.pending = append(s.pending, delivery{})
	i := len(s.pending) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !d.before(&s.pending[p]) {
			break
		}
		s.pending[i] = s.pending[p]
		i = p
	}
	s.pending[i] = *d
	return i == 0
}

// pop removes and returns the head of the heap.
func (s *deliveryShard) pop() delivery {
	h := s.pending
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = delivery{} // unpin the payloads
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	s.pending = h
	return top
}

// wakeLoop makes the loop re-read the heap and Hub.closed.
func (s *deliveryShard) wakeLoop() {
	select {
	case s.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// now is the Hub's monotonic clock, which every shard's due times share.
func (h *Hub) now() time.Duration { return time.Since(h.epoch) }

// later queues d on its destination's shard behind one delay for a hop of
// size bytes: the latency model's draw plus the fault model's extra. It
// reports false — leaving the hop to the caller, inline — when the sum is
// zero (a jitter-only model can draw one).
func (h *Hub) later(d *delivery, size int, extra time.Duration) (bool, error) {
	s := d.dst.shard
	now := h.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.closed.Load() {
		return false, ErrClosed
	}
	delay := extra
	if !h.model.Zero() {
		delay += h.model.Delay(size, s.rng)
	}
	if delay == 0 {
		return false, nil
	}
	d.due = now + delay
	h.queueLocked(s, d)
	return true, nil
}

// queueLocked adds d to s's heap, starting s's loop on its first delayed
// hop and waking it when d is the new head. The caller holds s.mu and has
// checked h.closed.
func (h *Hub) queueLocked(s *deliveryShard, d *delivery) {
	if s.done == nil {
		s.wake = make(chan struct{}, 1)
		s.done = make(chan struct{})
		go h.run(s)
	}
	if s.push(d) {
		s.wakeLoop()
	}
}

// run is s's delivery loop. It pops every due hop under s.mu and hands them
// out with the lock released, so handlers may send (and schedule) freely.
// It never waits on a destination: push runs the handler, or queues the
// hop for one not installed yet, and no mailbox holds its producer.
func (h *Hub) run(s *deliveryShard) {
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []delivery
	for {
		s.mu.Lock()
		if h.closed.Load() {
			s.mu.Unlock()
			return
		}
		now := h.now()
		for len(s.pending) > 0 && s.pending[0].due <= now {
			due = append(due, s.pop())
		}
		if len(due) == 0 {
			if len(s.pending) > 0 {
				timer.Reset(s.pending[0].due - now)
			} else {
				timer.Stop()
			}
			s.mu.Unlock()
			select {
			case <-timer.C:
			case <-s.wake:
			}
			continue
		}
		s.mu.Unlock()
		s.dispatching.Store(true)
		for i := range due {
			if h.closed.Load() {
				break
			}
			due[i].dst.push(&due[i].env, due[i].batch)
		}
		s.dispatching.Store(false)
		clear(due)
		due = due[:0]
	}
}
