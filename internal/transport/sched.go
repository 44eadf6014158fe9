package transport

import (
	"fmt"
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
// started by its first delayed hop — sleeps on one alarm until the head is
// due, then hands out everything due in (due, seq) order. A conn belongs to
// one shard, so its hops leave in that order; hops to conns on different
// shards are handed out in parallel, as deliveries to separate nodes are.
// One heap and one loop per shard, where a timer and a goroutine per
// envelope cost fig4-double-n1000 a fifth of its throughput (ROADMAP
// finding (iii)), and one loop per Hub made each round's 16 000 hops queue
// behind one goroutine (finding (xvi)). Everything but dispatching and
// waiting is guarded by mu.
type deliveryShard struct {
	mu      sync.Mutex
	rng     *rand.Rand // the latency model's jitter for hops to this shard
	pending []delivery // binary min-heap on before
	seq     uint64
	alarm   *alarm        // set with done; nil again once the loop has closed it
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
	if err := h.queueLocked(s, d); err != nil {
		return false, err
	}
	return true, nil
}

// queueLocked adds d to s's heap, starting s's loop on its first delayed
// hop and arming the loop's alarm for d when d is the new head. The caller
// holds s.mu and has checked h.closed.
func (h *Hub) queueLocked(s *deliveryShard, d *delivery) error {
	if s.done == nil {
		a, err := newAlarm()
		if err != nil {
			return fmt.Errorf("transport: delivery alarm: %w", err)
		}
		s.alarm = a
		s.done = make(chan struct{})
		go h.run(s, a)
	}
	if s.push(d) {
		s.alarm.arm(d.due - h.now())
	}
	return nil
}

// run is s's delivery loop. It pops every due hop under s.mu and hands them
// out with the lock released, so handlers may send (and schedule) freely.
// It never waits on a destination: push runs the handler, or queues the
// hop for one not installed yet, and no mailbox holds its producer. It
// closes a, its alarm, under s.mu once the Hub is closed, so no arm — each
// made under s.mu, after a check of h.closed or of s.alarm — follows.
func (h *Hub) run(s *deliveryShard, a *alarm) {
	defer close(s.done)
	var due []delivery
	for {
		s.mu.Lock()
		if h.closed.Load() {
			a.close()
			s.alarm = nil
			s.mu.Unlock()
			return
		}
		now := h.now()
		for len(s.pending) > 0 && s.pending[0].due <= now {
			due = append(due, s.pop())
		}
		if len(due) == 0 {
			if len(s.pending) > 0 {
				a.arm(s.pending[0].due - now)
			}
			s.mu.Unlock()
			a.wait()
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
