package transport

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// onShards makes the Hubs the test creates from here on run n delivery
// shards (NewHub reads GOMAXPROCS once) and restores GOMAXPROCS after it.
func onShards(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// pendingHops returns a copy of every hop waiting in h's delivery shards.
func pendingHops(h *Hub) []delivery {
	var out []delivery
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		out = append(out, s.pending...)
		s.mu.Unlock()
	}
	return out
}

// loopsDone returns the exit channel of every delivery loop h has started.
func loopsDone(h *Hub) []chan struct{} {
	var out []chan struct{}
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		if s.done != nil {
			out = append(out, s.done)
		}
		s.mu.Unlock()
	}
	return out
}

// shardOf returns the index of the delivery shard conn id is attached to.
func shardOf(t *testing.T, h *Hub, id wire.NodeID) int {
	t.Helper()
	c := (*h.nodes.Load())[id]
	for i := range h.shards {
		if c.shard == &h.shards[i] {
			return i
		}
	}
	t.Fatalf("conn %d is on no shard of its Hub", id)
	return -1
}

// TestHubLatencyModelFidelity pins the delay distribution the scheduler
// replays to the one the latency model draws: each destination's draws come
// from its shard's seeded stream.
func TestHubLatencyModelFidelity(t *testing.T) {
	onShards(t, 2)
	// sizes are the payload sizes sent in order; a negative entry -k is one
	// superframe of k envelopes of 100 bytes each.
	sizes := []int{0, 10, 1000, -3, 1, 4096, -2, 300, 50, -5, 7}
	payload := func(n int) []byte { return make([]byte, n) }
	model := func(base time.Duration) LatencyModel {
		return LatencyModel{Base: base, PerByte: time.Microsecond, Jitter: 3 * time.Millisecond}
	}
	// expected replays the seeded draws for sends i → to(i): one per send,
	// on a superframe's total bytes, each from the stream of the
	// destination's shard.
	expected := func(t *testing.T, h *Hub, to func(int) wire.NodeID) []time.Duration {
		rngs := make(map[int]*rand.Rand)
		out := make([]time.Duration, len(sizes))
		for i, n := range sizes {
			if n < 0 {
				n = -n * 100
			}
			shard := shardOf(t, h, to(i))
			if rngs[shard] == nil {
				rngs[shard] = rand.New(rand.NewSource(jitterSeed(h.seed, shard)))
			}
			out[i] = h.model.Delay(n, rngs[shard])
		}
		return out
	}
	// send ships sizes[i] to node to as envelope(s) whose Tag.Round is i and
	// returns the Hub clock just before and just after the call.
	send := func(t *testing.T, h *Hub, a Conn, i int, to wire.NodeID) (before, after time.Duration) {
		t.Helper()
		before = h.now()
		var err error
		if n := sizes[i]; n >= 0 {
			err = a.Send(wire.Envelope{From: 1, To: to, Tag: wire.Tag{Round: uint64(i)}, Payload: payload(n)})
		} else {
			batch := make([]wire.Envelope, -n)
			for j := range batch {
				batch[j] = wire.Envelope{From: 1, To: to, Tag: wire.Tag{Round: uint64(i)}, Payload: payload(100)}
			}
			err = a.SendBatch(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		return before, h.now()
	}

	t.Run("serialized sends draw the seeded sequence, one draw per superframe", func(t *testing.T) {
		h := NewHub(model(time.Hour), 42) // nothing comes due: the heaps hold every draw
		defer h.Close()
		a, _ := h.Attach(1)
		h.Attach(2)
		h.Attach(3)
		if shardOf(t, h, 2) == shardOf(t, h, 3) {
			t.Fatal("nodes 2 and 3 share a shard; the test needs two")
		}
		// Sends alternate between the shards: each destination's draws
		// must still be its own stream's, in its own send order.
		to := func(i int) wire.NodeID { return wire.NodeID(2 + i%2) }
		want := expected(t, h, to)
		before := make([]time.Duration, len(sizes))
		after := make([]time.Duration, len(sizes))
		for i := range sizes {
			before[i], after[i] = send(t, h, a, i, to(i))
		}
		pending := pendingHops(h)
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
			if d.dst.id != to(i) {
				t.Errorf("send %d: queued for %d, want %d", i, d.dst.id, to(i))
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
		h := NewHub(model(2*time.Millisecond), 7)
		defer h.Close()
		a, _ := h.Attach(1)
		b, _ := h.Attach(2)
		arrived := make(chan [2]time.Duration, len(sizes))
		b.SetHandler(func(e wire.Envelope) { arrived <- [2]time.Duration{time.Duration(e.Tag.Round), h.now()} })
		b.SetBatchHandler(func(envs []wire.Envelope) {
			arrived <- [2]time.Duration{time.Duration(envs[0].Tag.Round), h.now()}
		})
		to := func(int) wire.NodeID { return 2 }
		want := expected(t, h, to)
		sent := make([]time.Duration, len(sizes))
		for i := range sizes {
			sent[i], _ = send(t, h, a, i, to(i))
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
		dst.shard.mu.Lock()
		due := h.now() + 5*time.Millisecond
		for i := 0; i < n; i++ {
			if err := h.queueLocked(dst.shard, &delivery{due: due, dst: dst, env: wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i)}}}); err != nil {
				dst.shard.mu.Unlock()
				t.Fatal(err)
			}
		}
		dst.shard.mu.Unlock()
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

// TestHubDeliversOnTime sends 200 hops one after another through an idle
// Hub and times each from Send to its handler: none may arrive before its
// delay, and the median must be late by less than 300 µs. The delay is a
// fractional millisecond, so a loop whose sleep is rounded to whole
// milliseconds (a runtime timer on an idle process) shows here: on a
// 2-vCPU host it reads medians of 0.65–0.66 ms.
func TestHubDeliversOnTime(t *testing.T) {
	const (
		delay = 2500 * time.Microsecond
		hops  = 200
		bound = 300 * time.Microsecond
	)
	h := NewHub(LatencyModel{Base: delay}, 1)
	defer h.Close()
	a, _ := h.Attach(1)
	b, _ := h.Attach(2)
	arrived := make(chan time.Duration, 1)
	b.SetHandler(func(wire.Envelope) { arrived <- h.now() })
	late := make([]time.Duration, hops)
	for i := range late {
		sent := h.now()
		if err := a.Send(env(1, 2, "x")); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-arrived:
			late[i] = at - sent - delay
		case <-time.After(5 * time.Second):
			t.Fatalf("hop %d not delivered", i)
		}
		if late[i] < 0 {
			t.Fatalf("hop %d arrived %v before its %v delay", i, -late[i], delay)
		}
	}
	slices.Sort(late)
	if med := late[hops/2]; med >= bound {
		t.Errorf("median lateness %v over %d hops of %v (p90 %v), want < %v", med, hops, delay, late[hops*9/10], bound)
	}
}

// TestHubCloseDropsPendingDeliveries closes a Hub with 10 000 deliveries
// waiting out their delay on two shards.
func TestHubCloseDropsPendingDeliveries(t *testing.T) {
	onShards(t, 2)
	testleak.Check(t, func() {
		h := NewHub(LatencyModel{Base: time.Second, Jitter: time.Second}, 1)
		a, _ := h.Attach(1)
		b, _ := h.Attach(2)
		c, _ := h.Attach(3)
		var calls atomic.Int64
		b.SetHandler(func(wire.Envelope) { calls.Add(1) })
		c.SetHandler(func(wire.Envelope) { calls.Add(1) })
		const pending = 10000
		for i := 0; i < pending; i++ {
			to := wire.NodeID(2 + i%2)
			if err := a.Send(env(1, to, "later")); err != nil {
				t.Fatal(err)
			}
		}
		if queued := len(pendingHops(h)); queued != pending {
			t.Fatalf("%d deliveries pending, want %d", queued, pending)
		}
		loops := loopsDone(h)
		if len(loops) != 2 {
			t.Fatalf("%d delivery loops started, want one per shard (2)", len(loops))
		}
		start := time.Now()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("Close with %d pending deliveries took %v, want < 100ms", pending, took)
		}
		if left := len(pendingHops(h)); left != 0 {
			t.Errorf("%d deliveries still pending after Close, want every shard's dropped", left)
		}
		for _, done := range loops {
			select {
			case <-done:
			default:
				t.Error("Close returned before a delivery loop exited")
			}
		}
		time.Sleep(20 * time.Millisecond)
		if n := calls.Load(); n != 0 {
			t.Errorf("%d handler calls after Close returned", n)
		}
	})
}

// TestHubCloseFromHandler closes the Hub from inside a handler a delivery
// loop is running, once alone and once while the other shard's loop is
// inside a handler of its own: Close waits for neither, and every loop
// exits once its handler returns.
func TestHubCloseFromHandler(t *testing.T) {
	onShards(t, 2)
	t.Run("one loop", func(t *testing.T) {
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
			for _, done := range loopsDone(h) {
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("delivery loop did not exit after Close from a handler")
				}
			}
		})
	})
	t.Run("while another loop dispatches", func(t *testing.T) {
		testleak.Check(t, func() {
			h := NewHub(LatencyModel{Base: time.Millisecond}, 1)
			a, _ := h.Attach(1)
			b, _ := h.Attach(2)
			c, _ := h.Attach(3)
			if shardOf(t, h, 2) == shardOf(t, h, 3) {
				t.Fatal("nodes 2 and 3 share a shard; the test needs two")
			}
			// b's handler holds its loop inside a dispatch until released;
			// c's handler, on the other loop, closes the Hub meanwhile.
			inB, release := make(chan struct{}), make(chan struct{})
			b.SetHandler(func(wire.Envelope) {
				close(inB)
				<-release
			})
			closed := make(chan struct{})
			c.SetHandler(func(wire.Envelope) {
				_ = h.Close()
				close(closed)
			})
			if err := a.Send(env(1, 2, "hold")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-inB:
			case <-time.After(5 * time.Second):
				t.Fatal("hop to b not delivered")
			}
			if err := a.Send(env(1, 3, "close")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Hub.Close called from one loop's handler waited for the other loop's handler")
			}
			loops := loopsDone(h)
			if len(loops) != 2 {
				t.Fatalf("%d delivery loops started, want 2", len(loops))
			}
			close(release)
			for _, done := range loops {
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("delivery loop did not exit after Close from a handler")
				}
			}
		})
	})
}

// TestHubShardsDeliverConcurrently: hops to destinations on different
// shards are handed out in parallel, so a handler on one shard does not
// hold up deliveries on the other — as on separate nodes. A single delivery
// loop per Hub fails it: b's handler runs first (its hop is due first) and
// waits out its whole second for a hop queued behind it.
func TestHubShardsDeliverConcurrently(t *testing.T) {
	onShards(t, 2)
	testleak.Check(t, func() {
		h := NewHub(LatencyModel{Base: time.Millisecond}, 1)
		defer h.Close()
		a, _ := h.Attach(1)
		b, _ := h.Attach(2) // shard 1 of 2, round-robin in attach order
		c, _ := h.Attach(3) // shard 0
		reachedC := make(chan struct{})
		c.SetHandler(func(wire.Envelope) { close(reachedC) })
		result := make(chan bool, 1)
		b.SetHandler(func(wire.Envelope) {
			select {
			case <-reachedC:
				result <- true
			case <-time.After(time.Second):
				result <- false
			}
		})
		if err := a.Send(env(1, 2, "waits")); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(env(1, 3, "awaited")); err != nil {
			t.Fatal(err)
		}
		select {
		case ok := <-result:
			if !ok {
				t.Fatal("a handler on one shard waited 1s for a hop to another shard's destination: the shards do not deliver concurrently")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("hop to b not delivered")
		}
	})
}

// BenchmarkHubDelayedDelivery is Send → handler through a Hub with a 1 µs
// base delay: the delivery scheduler's cost per hop. batch=1 is Send,
// batch=16 is SendBatch of 16 envelopes (one op per call). fanout is shaped
// like fig4-double-n1000's result hop: 8 senders, 1000 destinations, one
// envelope per op, so ns/op is ns per hop across every shard.
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
	b.Run("fanout", func(b *testing.B) {
		const senders, dsts = 8, 1000
		h := NewHub(LatencyModel{Base: time.Microsecond}, 1)
		defer h.Close()
		from := make([]Conn, senders)
		for i := range from {
			from[i], _ = h.Attach(wire.NodeID(i + 1))
		}
		want := int64(b.N)
		var got atomic.Int64
		all := make(chan struct{})
		for i := 0; i < dsts; i++ {
			c, _ := h.Attach(wire.NodeID(senders + 1 + i))
			c.SetHandler(func(wire.Envelope) {
				if got.Add(1) == want {
					close(all)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for s := range from {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				e := env(wire.NodeID(s+1), 0, "payload")
				for i := s; i < b.N; i += senders {
					e.To = wire.NodeID(senders + 1 + i%dsts)
					if err := from[s].Send(e); err != nil {
						b.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		if b.Failed() {
			return
		}
		<-all
	})
}
