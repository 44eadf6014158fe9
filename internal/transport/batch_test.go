package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"distauction/internal/auth"
	"distauction/internal/wire"
)

func batchEnv(from, to wire.NodeID, round uint64, payload string) wire.Envelope {
	return wire.Envelope{
		From:    from,
		To:      to,
		Tag:     wire.Tag{Round: round, Block: wire.BlockTask, Step: 1},
		Payload: []byte(payload),
	}
}

// TestHubSendBatchDeliversWholeFrame sends a superframe over the hub and
// asserts the receiver's batch handler gets it in ONE call.
func TestHubSendBatchDeliversWholeFrame(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := hub.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls [][]wire.Envelope
	c2.SetBatchHandler(func(envs []wire.Envelope) {
		mu.Lock()
		calls = append(calls, envs)
		mu.Unlock()
	})
	batch := []wire.Envelope{
		batchEnv(1, 2, 1, "a"),
		batchEnv(1, 2, 2, "b"),
		batchEnv(1, 2, 3, "c"),
	}
	if err := c1.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || len(calls[0]) != 3 {
		t.Fatalf("want one 3-envelope dispatch, got %d calls", len(calls))
	}
	for i, env := range calls[0] {
		if env.Tag != batch[i].Tag || string(env.Payload) != string(batch[i].Payload) {
			t.Fatalf("envelope %d corrupted: %+v", i, env)
		}
	}
}

// TestHubSendBatchValidates rejects forged senders and mixed destinations.
func TestHubSendBatchValidates(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, _ := hub.Attach(1)
	if _, err := hub.Attach(2); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Attach(3); err != nil {
		t.Fatal(err)
	}
	if err := c1.SendBatch([]wire.Envelope{batchEnv(9, 2, 1, "x")}); err == nil {
		t.Fatal("forged From accepted")
	}
	if err := c1.SendBatch([]wire.Envelope{batchEnv(1, 2, 1, "x"), batchEnv(1, 3, 1, "y")}); err == nil {
		t.Fatal("mixed destinations accepted")
	}
}

// TestHubChargesLatencyPerFrame is the latency-amortisation claim: a
// k-envelope superframe pays base latency ONCE, while k singles pay it k
// times. With base = 20ms and no jitter, a 16-envelope batch must arrive in
// far less time than 16 sequential bases while a per-envelope pump of the
// same traffic pays at least one base per message ordering-independently —
// here we simply assert the batch is delivered within ~2 bases and that all
// envelopes arrive together.
func TestHubChargesLatencyPerFrame(t *testing.T) {
	const base = 20 * time.Millisecond
	hub := NewHub(LatencyModel{Base: base}, 1)
	defer hub.Close()
	c1, _ := hub.Attach(1)
	c2, _ := hub.Attach(2)
	arrivals := make(chan time.Time, 64)
	c2.SetBatchHandler(func(envs []wire.Envelope) {
		now := time.Now()
		for range envs {
			arrivals <- now
		}
	})
	c2.SetHandler(func(env wire.Envelope) { arrivals <- time.Now() })

	const k = 16
	batch := make([]wire.Envelope, k)
	for i := range batch {
		batch[i] = batchEnv(1, 2, uint64(i+1), "p")
	}
	start := time.Now()
	if err := c1.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	var last time.Time
	for i := 0; i < k; i++ {
		select {
		case ts := <-arrivals:
			last = ts
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d envelopes arrived", i, k)
		}
	}
	if elapsed := last.Sub(start); elapsed > 8*base {
		// 16 sequential bases would be 16x; generous slack for loaded CI.
		t.Fatalf("batch took %v; a per-frame charge should be ~%v", elapsed, base)
	}
}

// TestCoalescerBatchesConcurrentSends drives many concurrent sends to one
// peer through a Coalescer and asserts (a) every envelope arrives exactly
// once and (b) fewer frames than envelopes were shipped (occupancy > 1).
func TestCoalescerBatchesConcurrentSends(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, _ := hub.Attach(1)
	c2, _ := hub.Attach(2)
	var mu sync.Mutex
	got := map[string]int{}
	count := func(env wire.Envelope) {
		mu.Lock()
		got[string(env.Payload)]++
		mu.Unlock()
	}
	c2.SetBatchHandler(func(envs []wire.Envelope) {
		for _, env := range envs {
			count(env)
		}
	})
	c2.SetHandler(count)

	co := NewCoalescer(c1)
	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				env := batchEnv(1, 2, uint64(i+1), fmt.Sprintf("g%d-%d", g, i))
				if err := co.Send(env); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	co.Drain() // sends return once queued; the flushes deliver
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("received %d distinct payloads, want %d", len(got), n)
	}
	for p, c := range got {
		if c != 1 {
			t.Fatalf("payload %q delivered %d times", p, c)
		}
	}
	st := co.Stats()
	if st.Envelopes != n {
		t.Fatalf("stats count %d envelopes, want %d", st.Envelopes, n)
	}
	if st.Frames >= st.Envelopes {
		t.Fatalf("no coalescing: %d frames for %d envelopes", st.Frames, st.Envelopes)
	}
	t.Logf("occupancy: %.2f envelopes/frame (%d superframes)", st.Occupancy(), st.Superframes)
}

// TestCoalescerSingletonLeavesImmediately: an isolated send must ship as a
// plain envelope (no superframe) with no added latency mechanism.
func TestCoalescerSingletonLeavesImmediately(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, _ := hub.Attach(1)
	c2, _ := hub.Attach(2)
	in := Pull(c2)
	co := NewCoalescer(c1)
	if err := co.Send(batchEnv(1, 2, 1, "solo")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env, err := in.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != "solo" {
		t.Fatalf("got %+v", env)
	}
	st := co.Stats()
	if st.Frames != 1 || st.Superframes != 0 || st.Envelopes != 1 {
		t.Fatalf("singleton stats: %+v", st)
	}
}

// TestCoalescerPropagatesSendErrors: once the underlying conn closes, every
// Send — shipper or waiter — must observe an error.
func TestCoalescerPropagatesSendErrors(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, _ := hub.Attach(1)
	if _, err := hub.Attach(2); err != nil {
		t.Fatal(err)
	}
	co := NewCoalescer(c1)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := co.Send(batchEnv(1, 2, 1, "x")); err == nil {
		t.Fatal("send through a coalescer on a closed conn succeeded")
	}
}

// TestTCPSuperframeRoundTrip runs an authenticated superframe over real TCP:
// one frame, one batch MAC, delivered to the receiver's batch handler.
func TestTCPSuperframeRoundTrip(t *testing.T) {
	master := []byte("batch-secret")
	ids := []wire.NodeID{1, 2}
	mk := func(self wire.NodeID) *TCPNode {
		n, err := ListenTCP(TCPConfig{
			Self:       self,
			ListenAddr: "127.0.0.1:0",
			Peers:      map[wire.NodeID]string{},
			Registry:   auth.NewRegistryFromMaster(master, self, ids),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	n1, n2 := mk(1), mk(2)
	n1.SetPeer(2, n2.Addr())

	batches := make(chan []wire.Envelope, 1)
	n2.SetBatchHandler(func(envs []wire.Envelope) {
		cp := make([]wire.Envelope, len(envs))
		copy(cp, envs)
		batches <- cp
	})

	want := []wire.Envelope{
		batchEnv(1, 2, 1, "alpha"),
		batchEnv(1, 2, 2, "beta"),
		batchEnv(1, 2, 3, "gamma"),
	}
	if err := n1.SendBatch(append([]wire.Envelope(nil), want...)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-batches:
		if len(got) != len(want) {
			t.Fatalf("got %d envelopes, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Tag != want[i].Tag || string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("envelope %d: got %+v", i, got[i])
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("superframe never arrived")
	}
	if d := n2.Dropped.Load(); d != 0 {
		t.Fatalf("receiver dropped %d frames", d)
	}
}

// TestTCPSuperframeBadMACDropped corrupts a superframe in flight (wrong
// key) and asserts the receiver drops the whole frame.
func TestTCPSuperframeBadMACDropped(t *testing.T) {
	ids := []wire.NodeID{1, 2}
	sender, err := ListenTCP(TCPConfig{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		Peers:      map[wire.NodeID]string{},
		Registry:   auth.NewRegistryFromMaster([]byte("wrong-secret"), 1, ids),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	recv, err := ListenTCP(TCPConfig{
		Self:       2,
		ListenAddr: "127.0.0.1:0",
		Peers:      map[wire.NodeID]string{},
		Registry:   auth.NewRegistryFromMaster([]byte("right-secret"), 2, ids),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	in := Pull(recv)
	sender.SetPeer(2, recv.Addr())
	if err := sender.SendBatch([]wire.Envelope{
		batchEnv(1, 2, 1, "evil"),
		batchEnv(1, 2, 2, "twin"),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for recv.Dropped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad superframe never counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if env, err := in.Recv(ctx); err == nil {
		t.Fatalf("forged envelope delivered: %+v", env)
	}
}
