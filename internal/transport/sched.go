package transport

import (
	"sync/atomic"
	"time"

	"distauction/internal/wire"
)

// delivery is one modelled hop waiting in a Hub's scheduler: a single
// envelope, or (batch non-nil) the Hub's own copy of a superframe.
type delivery struct {
	due   time.Duration // monotonic, since the scheduler's epoch
	seq   uint64        // equal due times leave in the order they were sent
	dst   *MemConn
	env   wire.Envelope
	batch []wire.Envelope
}

func (d *delivery) before(o *delivery) bool {
	return d.due < o.due || (d.due == o.due && d.seq < o.seq)
}

// scheduler is a Hub's delivery scheduler: every delayed hop on the Hub,
// whether the latency model or the fault model delayed it, waits in one
// min-heap, and one goroutine — started by the first delayed hop — sleeps
// on one reusable timer until the head is due, then hands out
// everything due in (due, seq) order: one timer and one goroutine per Hub,
// where a timer and a goroutine per envelope cost fig4-double-n1000 a fifth
// of its throughput (ROADMAP finding (iii)). Everything but dispatching is
// guarded by Hub.mu.
type scheduler struct {
	epoch   time.Time
	pending []delivery // binary min-heap on before
	seq     uint64
	wake    chan struct{} // capacity 1; a new head was pushed, or Close
	done    chan struct{} // nil until the loop starts; closed when it exits

	// dispatching is set while the loop hands out due hops: Hub.Close then
	// returns without waiting for the loop, which may be running the very
	// handler that called it.
	dispatching atomic.Bool
}

// now is the scheduler's monotonic clock.
func (s *scheduler) now() time.Duration { return time.Since(s.epoch) }

// push adds d to the heap and reports whether it became the head. The heap
// is written out rather than built on container/heap, whose Push boxes
// every entry in an interface: one allocation per hop.
func (s *scheduler) push(d *delivery) bool {
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
func (s *scheduler) pop() delivery {
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

// later queues d behind one delay for a hop of size bytes: the latency
// model's draw plus the fault model's extra. It reports false — leaving the
// hop to the caller, inline — when the sum is zero (a jitter-only model can
// draw one).
func (h *Hub) later(d *delivery, size int, extra time.Duration) (bool, error) {
	s := &h.sched
	now := s.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		return false, ErrClosed
	}
	delay := extra
	if !h.model.Zero() {
		delay += h.model.Delay(size, h.rng)
	}
	if delay == 0 {
		return false, nil
	}
	d.due = now + delay
	h.queueLocked(d)
	return true, nil
}

// queueLocked adds d to the heap, starting the loop on the Hub's first
// delayed hop and waking it when d is the new head. The caller holds h.mu
// and has checked h.closed.
func (h *Hub) queueLocked(d *delivery) {
	s := &h.sched
	if s.done == nil {
		s.wake = make(chan struct{}, 1)
		s.done = make(chan struct{})
		go h.run()
	}
	if s.push(d) {
		h.wakeLoop()
	}
}

// wakeLoop makes the loop re-read the heap and h.closed.
func (h *Hub) wakeLoop() {
	select {
	case h.sched.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// run is the delivery loop. It pops every due hop under h.mu and hands them
// out with the lock released, so handlers may send (and schedule) freely.
// It never waits on a destination: push runs the handler, or queues the
// hop for one not installed yet, and no mailbox holds its producer.
func (h *Hub) run() {
	s := &h.sched
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []delivery
	for {
		h.mu.Lock()
		if h.closed.Load() {
			h.mu.Unlock()
			return
		}
		now := s.now()
		for len(s.pending) > 0 && s.pending[0].due <= now {
			due = append(due, s.pop())
		}
		if len(due) == 0 {
			if len(s.pending) > 0 {
				timer.Reset(s.pending[0].due - now)
			} else {
				timer.Stop()
			}
			h.mu.Unlock()
			select {
			case <-timer.C:
			case <-s.wake:
			}
			continue
		}
		h.mu.Unlock()
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
