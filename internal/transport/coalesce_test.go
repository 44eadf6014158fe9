package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/wire"
)

// recordConn is a BatchConn that records what it ships, in ship order, and
// fails every ship while fail is set. It flags two ships to one
// destination in flight at once, which would let batches overtake.
type recordConn struct {
	fail     atomic.Bool
	inFlight sync.Map // wire.NodeID → *atomic.Int32
	overlap  atomic.Bool

	mu    sync.Mutex
	ships [][]wire.Envelope
}

var errShip = errors.New("ship refused")

func (c *recordConn) Self() wire.NodeID { return 1 }
func (c *recordConn) Close() error      { return nil }
func (c *recordConn) Send(env wire.Envelope) error {
	return c.SendBatch([]wire.Envelope{env})
}

func (c *recordConn) SendBatch(envs []wire.Envelope) error {
	n, _ := c.inFlight.LoadOrStore(envs[0].To, new(atomic.Int32))
	if n.(*atomic.Int32).Add(1) > 1 {
		c.overlap.Store(true)
	}
	defer n.(*atomic.Int32).Add(-1)
	if c.fail.Load() {
		return errShip
	}
	c.mu.Lock()
	c.ships = append(c.ships, append([]wire.Envelope(nil), envs...))
	c.mu.Unlock()
	return nil
}

// seqEnv is an envelope to `to` whose payload is the sender and a sequence
// number.
func seqEnv(to wire.NodeID, sender, seq int) wire.Envelope {
	p := binary.BigEndian.AppendUint32(nil, uint32(sender))
	return batchEnv(1, to, 1, string(binary.BigEndian.AppendUint32(p, uint32(seq))))
}

// TestCoalescerSendToUnattachedReturnsHubError: a destination is
// synchronous until it accepts a frame, so a send to a node that has not
// attached yet returns the Hub's own error, and the same send succeeds
// once the node attaches — the contract an attach-time retry relies on.
func TestCoalescerSendToUnattachedReturnsHubError(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, _ := hub.Attach(1)
	co := NewCoalescer(c1)
	for i := 0; i < 3; i++ {
		err := co.Send(batchEnv(1, 2, 1, "early"))
		if err == nil || err.Error() != "transport: unknown destination 2" {
			t.Fatalf("send %d to an unattached node: %v, want the hub's unknown-destination error", i, err)
		}
	}
	c2, _ := hub.Attach(2)
	in := Pull(c2)
	if err := co.Send(batchEnv(1, 2, 1, "late")); err != nil {
		t.Fatalf("send after attach: %v", err)
	}
	if env := recvWithin(t, in); string(env.Payload) != "late" {
		t.Fatalf("got %q", env.Payload)
	}
	if st := co.Stats(); st.Lost != 0 {
		t.Fatalf("failed synchronous sends counted lost: %+v", st)
	}
}

// TestCoalescerFailedShipGoesSynchronous: a queued batch whose ship fails
// is counted lost (its senders have returned), and the destination goes
// back to synchronous sends — the next one returns the conn's error — until
// a send gets through again.
func TestCoalescerFailedShipGoesSynchronous(t *testing.T) {
	conn := &gateConn{release: make(chan struct{})}
	co := NewCoalescer(conn)
	if err := co.Send(seqEnv(2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// The ships are held until all five sends have queued, so none of them
	// can see the failure.
	conn.held.Store(true)
	conn.fail.Store(true)
	for i := 1; i <= 5; i++ {
		if err := co.Send(seqEnv(2, 0, i)); err != nil {
			t.Fatalf("queued send %d returned %v", i, err)
		}
	}
	close(conn.release)
	co.Drain()
	if st := co.Stats(); st.Lost != 5 {
		t.Fatalf("lost %d envelopes, want 5 (%+v)", st.Lost, st)
	}
	if err := co.Send(seqEnv(2, 0, 6)); !errors.Is(err, errShip) {
		t.Fatalf("send after a failed ship returned %v, want the conn's error", err)
	}
	conn.fail.Store(false)
	if err := co.Send(seqEnv(2, 0, 7)); err != nil {
		t.Fatal(err)
	}
	if err := co.Send(seqEnv(2, 0, 8)); err != nil {
		t.Fatal(err)
	}
	co.Drain()
	if st := co.Stats(); st.Lost != 5 {
		t.Fatalf("lost %d envelopes after recovery, want still 5", st.Lost)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	var got []int
	for _, b := range conn.ships {
		for _, env := range b {
			got = append(got, int(binary.BigEndian.Uint32(env.Payload[4:])))
		}
	}
	if fmt.Sprint(got) != "[0 7 8]" {
		t.Fatalf("shipped %v, want [0 7 8]", got)
	}
}

// TestCoalescerShipsInQueueOrder: one ship per destination is in flight at
// a time and batches leave in queue order, so each sender's envelopes
// arrive in the order it sent them — across cap-size batches shipped by
// the appender that filled them and batches shipped by the flush.
func TestCoalescerShipsInQueueOrder(t *testing.T) {
	conn := &recordConn{}
	co := NewCoalescer(conn)
	const senders, per = 4, 3 * maxCoalesce
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := co.Send(seqEnv(2, s, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	co.Drain()
	if conn.overlap.Load() {
		t.Fatal("two ships to one destination were in flight at once")
	}
	next := make([]int, senders)
	conn.mu.Lock()
	defer conn.mu.Unlock()
	for _, b := range conn.ships {
		if len(b) > maxCoalesce {
			t.Fatalf("shipped a %d-envelope batch past the cap", len(b))
		}
		for _, env := range b {
			s, i := int(binary.BigEndian.Uint32(env.Payload)), int(binary.BigEndian.Uint32(env.Payload[4:]))
			if i != next[s] {
				t.Fatalf("sender %d: envelope %d shipped where %d was due", s, i, next[s])
			}
			next[s]++
		}
	}
	for s, n := range next {
		if n != per {
			t.Fatalf("sender %d: %d of %d envelopes shipped", s, n, per)
		}
	}
}

// gateConn holds every ship while held is set, until release is closed,
// as a conn waiting for window room does.
type gateConn struct {
	recordConn
	held    atomic.Bool
	release chan struct{}
}

func (c *gateConn) Send(env wire.Envelope) error { return c.SendBatch([]wire.Envelope{env}) }
func (c *gateConn) SendBatch(envs []wire.Envelope) error {
	if c.held.Load() {
		<-c.release
	}
	return c.recordConn.SendBatch(envs)
}

// TestCoalescerCapHoldsSenders: while a destination's ship is held, its
// senders fill one batch to the cap and then wait, so memory per
// destination stays bounded and a held conn holds its senders.
func TestCoalescerCapHoldsSenders(t *testing.T) {
	conn := &gateConn{release: make(chan struct{})}
	co := NewCoalescer(conn)
	if err := co.Send(seqEnv(2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	conn.held.Store(true)
	var sent atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 3*maxCoalesce; i++ {
			if err := co.Send(seqEnv(2, 0, i)); err != nil {
				t.Error(err)
				return
			}
			sent.Add(1)
		}
	}()
	// The held ship carries at most one batch and the open one fills to
	// the cap: the sender gets no further than that, whichever of it and
	// the flush took the held batch.
	pc := co.peer(2)
	openLen := func() int {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return len(pc.open)
	}
	deadline := time.Now().Add(10 * time.Second)
	for prev := int32(-1); sent.Load() != prev; {
		if time.Now().After(deadline) {
			t.Fatalf("sender never settled: %d sent", sent.Load())
		}
		prev = sent.Load()
		time.Sleep(20 * time.Millisecond)
	}
	if n, open := sent.Load(), openLen(); n > 2*maxCoalesce || open > maxCoalesce {
		t.Fatalf("%d sends returned, %d queued while the ship was held; the cap allows %d and %d",
			n, open, 2*maxCoalesce, maxCoalesce)
	}
	select {
	case <-done:
		t.Fatal("sender finished while every ship was held")
	default:
	}
	close(conn.release)
	<-done
	co.Drain()
	if st := co.Stats(); st.Envelopes != 3*maxCoalesce+1 || st.Lost != 0 {
		t.Fatalf("stats after release: %+v", st)
	}
}

// TestCoalescerFlushShipsQueued: Flush ships, on the caller's goroutine, a
// batch whose flush has not taken it yet, and returns without waiting on a
// destination whose ship is held — what Mux.Close relies on.
func TestCoalescerFlushShipsQueued(t *testing.T) {
	conn := &gateConn{release: make(chan struct{})}
	co := NewCoalescer(conn)
	for _, to := range []wire.NodeID{2, 3} {
		if err := co.Send(seqEnv(to, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	conn.held.Store(true)
	if err := co.Send(seqEnv(3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	held := co.peer(3)
	for {
		held.mu.Lock()
		shipping := held.shipping
		held.mu.Unlock()
		if shipping {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := co.Send(seqEnv(3, 0, 2)); err != nil { // queued behind the held ship
		t.Fatal(err)
	}
	conn.held.Store(false)
	// Destination 2 gets a batch queued whose flush has not run yet, as
	// Close can find one; the test stands in for that flush.
	pc := co.peer(2)
	pc.mu.Lock()
	pc.open, pc.flushing = append(pc.open, seqEnv(2, 0, 1)), true
	pc.mu.Unlock()
	co.Flush()
	shipped := func() string {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		var out []string
		for _, b := range conn.ships {
			for _, env := range b {
				out = append(out, fmt.Sprintf("%d:%d", env.To, binary.BigEndian.Uint32(env.Payload[4:])))
			}
		}
		return fmt.Sprint(out)
	}
	if got := shipped(); got != "[2:0 3:0 2:1]" {
		t.Fatalf("after Flush shipped %s, want [2:0 3:0 2:1]", got)
	}
	pc.mu.Lock()
	pc.flushing = false
	pc.mu.Unlock()
	close(conn.release)
	co.Drain()
	if got := shipped(); got != "[2:0 3:0 2:1 3:1 3:2]" {
		t.Fatalf("after release shipped %s", got)
	}
}

// TestCoalescerFanInExactlyOnce: 8 senders to 4 destinations over the
// zero-latency Hub; once the flushes are drained every envelope has been
// delivered exactly once and counted once.
func TestCoalescerFanInExactlyOnce(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, _ := hub.Attach(1)
	var mu sync.Mutex
	got := map[string]int{}
	count := func(env wire.Envelope) {
		mu.Lock()
		got[fmt.Sprintf("%d/%x", env.To, env.Payload)]++
		mu.Unlock()
	}
	const senders, dests, per = 8, 4, 200
	for d := 2; d < 2+dests; d++ {
		c, _ := hub.Attach(wire.NodeID(d))
		c.SetHandler(count)
		c.SetBatchHandler(func(envs []wire.Envelope) {
			for _, env := range envs {
				count(env)
			}
		})
	}
	co := NewCoalescer(c1)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := co.Send(seqEnv(wire.NodeID(2+i%dests), s, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	co.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != senders*per {
		t.Fatalf("received %d distinct envelopes, want %d", len(got), senders*per)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("envelope %s delivered %d times", k, n)
		}
	}
	if st := co.Stats(); st.Envelopes != senders*per || st.Lost != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func recvWithin(t *testing.T, in *Mailbox) wire.Envelope {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env, err := in.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return env
}
