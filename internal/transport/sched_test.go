package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/testleak"
	"distauction/internal/wire"
)

// stallBound is how long an envelope between two healthy conns may take
// on a 1 ms Hub while a third conn sits on a full pre-handler queue.
const stallBound = time.Second

// TestHubStalledDestinationDoesNotStallHub floods conn C, which nobody
// consumes, past its pre-handler queue: the delivery loop must keep A→B
// traffic flowing, and C, once it consumes, must get every envelope exactly
// once (reliable channels drop nothing).
func TestHubStalledDestinationDoesNotStallHub(t *testing.T) {
	const flood = connQueueCap + 256
	cases := []struct {
		name string
		net  func(*Hub) Network
		pull bool // C is a Pull mailbox nobody reads, not a conn without a handler
	}{
		{"MemConn without a handler", func(h *Hub) Network { return h }, false},
		{"Pull mailbox nobody reads", func(h *Hub) Network { return h }, true},
		{"Resilient conn without a handler", func(h *Hub) Network { return Resilient(h, ResilientConfig{}) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testleak.Check(t, func() {
				hub := NewHub(LatencyModel{Base: time.Millisecond}, 1)
				net := tc.net(hub)
				defer net.Close()
				attach := func(id wire.NodeID) Conn {
					c, err := net.Attach(id)
					if err != nil {
						t.Fatal(err)
					}
					return c
				}
				a, b, c, d := attach(1), attach(2), attach(3), attach(4)
				var pull *Mailbox
				if tc.pull {
					pull = Pull(c)
				}
				arrived := make(chan time.Time, 16)
				b.SetHandler(func(wire.Envelope) { arrived <- time.Now() })

				for i := 0; i < flood; i++ {
					if err := d.Send(wire.Envelope{From: 4, To: 3, Tag: wire.Tag{Round: uint64(i)}}); err != nil {
						t.Fatal(err)
					}
				}
				// Every flood envelope is due by now; give the loop time to
				// reach them, then A→B must still go through.
				time.Sleep(20 * time.Millisecond)
				for i := 0; i < 10; i++ {
					sent := time.Now()
					if err := a.Send(env(1, 2, "through")); err != nil {
						t.Fatal(err)
					}
					select {
					case at := <-arrived:
						if lat := at.Sub(sent); lat > stallBound {
							t.Fatalf("A→B took %v behind a stalled C, want < %v", lat, stallBound)
						}
					case <-time.After(stallBound):
						t.Fatalf("A→B envelope %d not delivered within %v behind a stalled C", i, stallBound)
					}
				}

				seen := make([]atomic.Int32, flood)
				var got atomic.Int64
				record := func(round uint64) {
					seen[round].Add(1)
					got.Add(1)
				}
				if pull != nil {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					for i := 0; i < flood; i++ {
						e, err := pull.Recv(ctx)
						if err != nil {
							t.Fatalf("Recv %d of %d: %v", i, flood, err)
						}
						record(e.Tag.Round)
					}
				} else {
					c.SetHandler(func(e wire.Envelope) { record(e.Tag.Round) })
				}
				deadline := time.Now().Add(10 * time.Second)
				for got.Load() < flood && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond) // room for a duplicate to show
				if n := got.Load(); n != flood {
					t.Fatalf("C received %d envelopes, want %d", n, flood)
				}
				for i := range seen {
					if n := seen[i].Load(); n != 1 {
						t.Fatalf("flood envelope %d delivered %d times", i, n)
					}
				}
				if pull != nil {
					pull.Close()
				}
			})
		})
	}
}

// TestHubLatencyModelFidelity pins the delay distribution the scheduler
// replays to the one the latency model draws.
func TestHubLatencyModelFidelity(t *testing.T) {
	// sizes are the payload sizes sent in order; a negative entry -k is one
	// superframe of k envelopes of 100 bytes each.
	sizes := []int{0, 10, 1000, -3, 1, 4096, -2, 300, 50, -5, 7}
	payload := func(n int) []byte { return make([]byte, n) }
	model := func(base time.Duration) LatencyModel {
		return LatencyModel{Base: base, PerByte: time.Microsecond, Jitter: 3 * time.Millisecond}
	}
	// expected replays the seeded draws: one per send, on a superframe's
	// total bytes.
	expected := func(m LatencyModel, seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, len(sizes))
		for i, n := range sizes {
			if n < 0 {
				n = -n * 100
			}
			out[i] = m.Delay(n, rng)
		}
		return out
	}
	// send ships sizes[i] as envelope(s) whose Tag.Round is i and returns
	// the scheduler clock just before and just after the call.
	send := func(t *testing.T, h *Hub, a Conn, i int) (before, after time.Duration) {
		t.Helper()
		before = h.sched.now()
		var err error
		if n := sizes[i]; n >= 0 {
			err = a.Send(wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i)}, Payload: payload(n)})
		} else {
			batch := make([]wire.Envelope, -n)
			for j := range batch {
				batch[j] = wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i)}, Payload: payload(100)}
			}
			err = a.SendBatch(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		return before, h.sched.now()
	}

	t.Run("serialized sends draw the seeded sequence, one draw per superframe", func(t *testing.T) {
		m := model(time.Hour) // nothing comes due: the heap holds every draw
		h := NewHub(m, 42)
		defer h.Close()
		a, _ := h.Attach(1)
		h.Attach(2)
		want := expected(m, 42)
		before := make([]time.Duration, len(sizes))
		after := make([]time.Duration, len(sizes))
		for i := range sizes {
			before[i], after[i] = send(t, h, a, i)
		}
		h.mu.Lock()
		pending := append([]delivery(nil), h.sched.pending...)
		h.mu.Unlock()
		if len(pending) != len(sizes) {
			t.Fatalf("%d scheduled hops, want %d (one per send, one per superframe)", len(pending), len(sizes))
		}
		for _, d := range pending {
			i := int(d.env.Tag.Round)
			if d.batch != nil {
				i = int(d.batch[0].Tag.Round)
				if len(d.batch) != -sizes[i] {
					t.Errorf("send %d: superframe of %d, want %d", i, len(d.batch), -sizes[i])
				}
			}
			// due = (clock at the send) + drawn delay, the clock read inside
			// [before, after].
			if lo, hi := before[i]+want[i], after[i]+want[i]; d.due < lo || d.due > hi {
				t.Errorf("send %d: due %v, want the seeded draw %v after a send in [%v, %v]",
					i, d.due, want[i], before[i], after[i])
			}
		}
	})

	t.Run("no envelope arrives before its drawn delay", func(t *testing.T) {
		m := model(2 * time.Millisecond)
		h := NewHub(m, 7)
		defer h.Close()
		a, _ := h.Attach(1)
		b, _ := h.Attach(2)
		arrived := make(chan [2]time.Duration, len(sizes))
		b.SetHandler(func(e wire.Envelope) { arrived <- [2]time.Duration{time.Duration(e.Tag.Round), h.sched.now()} })
		b.SetBatchHandler(func(envs []wire.Envelope) {
			arrived <- [2]time.Duration{time.Duration(envs[0].Tag.Round), h.sched.now()}
		})
		want := expected(m, 7)
		sent := make([]time.Duration, len(sizes))
		for i := range sizes {
			sent[i], _ = send(t, h, a, i)
		}
		for range sizes {
			select {
			case got := <-arrived:
				i := int(got[0])
				if early := sent[i] + want[i] - got[1]; early > 0 {
					t.Errorf("send %d arrived %v before its drawn delay %v", i, early, want[i])
				}
			case <-time.After(5 * time.Second):
				t.Fatal("delivery missing")
			}
		}
	})

	t.Run("equal due times leave in send order", func(t *testing.T) {
		h := NewHub(LatencyModel{Base: time.Millisecond}, 1)
		defer h.Close()
		a, _ := h.Attach(1)
		b, _ := h.Attach(2)
		const n = 64
		var mu sync.Mutex
		var order []uint64
		b.SetHandler(func(e wire.Envelope) {
			mu.Lock()
			order = append(order, e.Tag.Round)
			mu.Unlock()
		})
		// One due time for all, queued in round order; the heap alone cannot
		// keep that order, the sequence numbers must.
		dst := (*h.nodes.Load())[2]
		h.mu.Lock()
		due := h.sched.now() + 5*time.Millisecond
		for i := 0; i < n; i++ {
			h.queueLocked(&delivery{due: due, dst: dst, env: wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i)}}})
		}
		h.mu.Unlock()
		// And end to end: a base-only model keeps one sender's order.
		for i := n; i < 2*n; i++ {
			if err := a.Send(wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			done := len(order) == 2*n
			mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("deliveries missing")
			}
			time.Sleep(time.Millisecond)
		}
		// Rounds below n (the equal-due hops) and from n on (the sends) must
		// each arrive in increasing order.
		last := [2]int64{-1, n - 1}
		for _, r := range order {
			g := 0
			if r >= n {
				g = 1
			}
			if int64(r) <= last[g] {
				t.Fatalf("arrival order %v: rounds 0..%d (one due time) and %d..%d (one sender, base-only) must each keep send order",
					order, n-1, n, 2*n-1)
			}
			last[g] = int64(r)
		}
	})
}

// TestHubCloseDropsPendingDeliveries closes a Hub with 10 000 deliveries
// waiting out their delay.
func TestHubCloseDropsPendingDeliveries(t *testing.T) {
	testleak.Check(t, func() {
		h := NewHub(LatencyModel{Base: time.Second, Jitter: time.Second}, 1)
		a, _ := h.Attach(1)
		b, _ := h.Attach(2)
		var calls atomic.Int64
		b.SetHandler(func(wire.Envelope) { calls.Add(1) })
		const pending = 10000
		for i := 0; i < pending; i++ {
			if err := a.Send(env(1, 2, "later")); err != nil {
				t.Fatal(err)
			}
		}
		h.mu.Lock()
		queued := len(h.sched.pending)
		h.mu.Unlock()
		if queued != pending {
			t.Fatalf("%d deliveries pending, want %d", queued, pending)
		}
		start := time.Now()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("Close with %d pending deliveries took %v, want < 100ms", pending, took)
		}
		select {
		case <-h.sched.done:
		default:
			t.Error("Close returned before the delivery loop exited")
		}
		time.Sleep(20 * time.Millisecond)
		if n := calls.Load(); n != 0 {
			t.Errorf("%d handler calls after Close returned", n)
		}
	})
}

// TestHubCloseFromHandler closes the Hub from inside a handler the delivery
// loop is running.
func TestHubCloseFromHandler(t *testing.T) {
	testleak.Check(t, func() {
		h := NewHub(LatencyModel{Base: time.Millisecond}, 1)
		a, _ := h.Attach(1)
		b, _ := h.Attach(2)
		closed := make(chan struct{})
		var once sync.Once
		b.SetHandler(func(wire.Envelope) {
			once.Do(func() {
				_ = h.Close()
				close(closed)
			})
		})
		for i := 0; i < 100; i++ {
			if err := a.Send(env(1, 2, "x")); err != nil {
				break // the handler closed the Hub already
			}
		}
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Hub.Close called from a handler did not return")
		}
		select {
		case <-h.sched.done:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery loop did not exit after Close from a handler")
		}
	})
}

// BenchmarkHubDelayedDelivery is Send → handler through a Hub with a 1 µs
// base delay: the delivery scheduler's cost per hop. batch=1 is Send,
// batch=16 is SendBatch of 16 envelopes (one op per call).
func BenchmarkHubDelayedDelivery(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			h := NewHub(LatencyModel{Base: time.Microsecond}, 1)
			defer h.Close()
			a, _ := h.Attach(1)
			dst, _ := h.Attach(2)
			want := int64(b.N * batch)
			var got atomic.Int64
			all := make(chan struct{})
			count := func(n int) {
				if got.Add(int64(n)) == want {
					close(all)
				}
			}
			dst.SetHandler(func(wire.Envelope) { count(1) })
			dst.SetBatchHandler(func(envs []wire.Envelope) { count(len(envs)) })
			e := env(1, 2, "payload")
			envs := make([]wire.Envelope, batch)
			for i := range envs {
				envs[i] = e
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if batch == 1 {
					err = a.Send(e)
				} else {
					err = a.SendBatch(envs)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			<-all
		})
	}
}
