package market_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/deviation"
	"distauction/internal/market"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

func twoMuxes(t *testing.T) (*market.Mux, *market.Mux) {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ca, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hub.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := market.NewMux(ca), market.NewMux(cb)
	t.Cleanup(func() { ma.Close(); mb.Close() })
	return ma, mb
}

func recvOne(t *testing.T, in *transport.Mailbox) wire.Envelope {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	env, err := in.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestMuxLaneRoundTripPreservesInstance(t *testing.T) {
	ma, mb := twoMuxes(t)
	a1, err := ma.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := mb.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := mb.Lane(2)
	if err != nil {
		t.Fatal(err)
	}

	tag := wire.Tag{Round: 7, Block: wire.BlockTask, Instance: 42, Step: 3}
	if err := a1.Send(wire.Envelope{From: 1, To: 2, Tag: tag, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, transport.Pull(b1))
	if env.Tag != tag || string(env.Payload) != "hi" {
		t.Fatalf("lane 1 got %+v", env)
	}
	// Lane 2 saw nothing.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := transport.Pull(b2).Recv(ctx); err == nil {
		t.Fatal("lane 2 received lane 1 traffic")
	}
}

func TestMuxInstanceOverflowRejected(t *testing.T) {
	ma, _ := twoMuxes(t)
	a1, err := ma.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	env := wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: 1, Block: wire.BlockTask, Instance: wire.MaxInstance + 1, Step: 1}}
	if err := a1.Send(env); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("want overflow error, got %v", err)
	}
}

func TestMuxParkingDeliversEarlyTraffic(t *testing.T) {
	ma, mb := twoMuxes(t)
	a3, err := ma.Lane(3)
	if err != nil {
		t.Fatal(err)
	}
	tag := wire.Tag{Round: 1, Block: wire.BlockTask, Instance: 0, Step: 1}
	if err := a3.Send(wire.Envelope{From: 1, To: 2, Tag: tag, Payload: []byte("early")}); err != nil {
		t.Fatal(err)
	}
	// Give the hub time to push the message into B's mux before the lane
	// opens, so the parking path (not a delivery race) is what's tested.
	time.Sleep(20 * time.Millisecond)
	b3, err := mb.Lane(3)
	if err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, transport.Pull(b3))
	if string(env.Payload) != "early" {
		t.Fatalf("parked message lost: %+v", env)
	}
}

func TestMuxLaneLifecycle(t *testing.T) {
	ma, _ := twoMuxes(t)
	if _, err := ma.Lane(wire.MaxLane + 1); err == nil {
		t.Fatal("no error for out-of-range lane")
	}
	l, err := ma.Lane(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Lane(5); err == nil {
		t.Fatal("no error for duplicate lane")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := ma.Lane(5); err != nil {
		t.Fatalf("lane not reusable after close: %v", err)
	}
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Lane(6); err == nil {
		t.Fatal("no error opening a lane on a closed mux")
	}
}

// TestMuxCountsLaneMailboxDrops floods an open lane nobody has installed a
// handler on past its mailbox: the overflow is dropped (the shared
// attachment must not stall) and counted, never silent.
func TestMuxCountsLaneMailboxDrops(t *testing.T) {
	ma, mb := twoMuxes(t)
	a1, err := ma.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := mb.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	const room, flood = 256 + 64, 400 // laneInboxSize
	for i := 0; i < flood; i++ {
		env := wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i + 1), Block: wire.BlockTask, Step: 1}}
		if err := a1.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	// Sends return once queued; the zero-latency hub delivers inside the
	// coalescer's ships, so once they are done the count is settled.
	ma.DrainSends()
	if got := mb.Stats().ParkedDropped; got != flood-room {
		t.Fatalf("ParkedDropped = %d, want %d", got, flood-room)
	}
	in := transport.Pull(b1)
	for i := 0; i < room; i++ {
		recvOne(t, in)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if env, err := in.Recv(ctx); err == nil {
		t.Fatalf("envelope beyond the mailbox was delivered: %+v", env)
	}
}

// TestDeviantConnUnderMuxStillEquivocates puts a deviation.Wrap-ed conn
// under a mux, whose coalescer ships its sends as batches: the rules must
// apply per envelope inside a batch exactly as they do to a lone send — the
// victim, and only the victim, sees the corrupted payloads, and a dropped
// envelope leaves the batch.
func TestDeviantConnUnderMuxStillEquivocates(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	const deviant, victim, bystander = 1, 2, 3
	lanes := map[wire.NodeID]transport.Conn{}
	for _, id := range []wire.NodeID{deviant, victim, bystander} {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == deviant {
			conn = deviation.Wrap(conn,
				deviation.Rule{Match: deviation.MatchBlockStep(wire.BlockTask, 9), Action: deviation.Drop},
				deviation.Rule{Match: deviation.MatchBlock(wire.BlockTask), Action: deviation.Mutate,
					Transform: deviation.EquivocateTo(victim)})
		}
		m := market.NewMux(conn)
		t.Cleanup(func() { m.Close() })
		if lanes[id], err = m.Lane(1); err != nil {
			t.Fatal(err)
		}
	}
	const honest = "\x01truth"
	corrupt := string(deviation.FlipPayloadByte()(wire.Envelope{Payload: []byte(honest)}).Payload)
	env := func(to wire.NodeID, round uint64, step uint8) wire.Envelope {
		return wire.Envelope{From: deviant, To: to, Tag: wire.Tag{Round: round, Block: wire.BlockTask, Step: step}, Payload: []byte(honest)}
	}

	const senders, perSender = 8, 20
	for to, want := range map[wire.NodeID]string{victim: corrupt, bystander: honest} {
		in := transport.Pull(lanes[to])
		// One formed batch (step 9 is dropped out of it) ...
		if err := lanes[deviant].SendBatch([]wire.Envelope{env(to, 1, 1), env(to, 1, 9), env(to, 1, 2)}); err != nil {
			t.Fatal(err)
		}
		// ... and concurrent lone sends, which the coalescer batches as it
		// pleases.
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := lanes[deviant].Send(env(to, uint64(2+s*perSender+i), 1)); err != nil {
						t.Error(err)
					}
				}
			}(s)
		}
		wg.Wait()
		for i := 0; i < 2+senders*perSender; i++ {
			got := recvOne(t, in)
			if got.Tag.Step == 9 {
				t.Fatalf("node %d received an envelope the deviant's rules drop: %+v", to, got)
			}
			if string(got.Payload) != want {
				t.Fatalf("node %d got payload %q, want %q", to, got.Payload, want)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		if extra, err := in.Recv(ctx); err == nil {
			t.Fatalf("node %d received an extra envelope: %+v", to, extra)
		}
		cancel()
	}
}

// heldConn holds every send while held is set, until the conn closes —
// the way a Resilient conn holds a sender waiting for window room — and
// then fails it.
type heldConn struct {
	transport.Conn
	held    atomic.Bool
	holding atomic.Int32 // ships held right now
	closed  chan struct{}
	once    sync.Once
}

func (c *heldConn) wait() error {
	if c.held.Load() {
		c.holding.Add(1)
		<-c.closed
		return transport.ErrClosed
	}
	return nil
}

func (c *heldConn) Send(env wire.Envelope) error {
	if err := c.wait(); err != nil {
		return err
	}
	return c.Conn.Send(env)
}

func (c *heldConn) SendBatch(envs []wire.Envelope) error {
	if err := c.wait(); err != nil {
		return err
	}
	return c.Conn.SendBatch(envs)
}

func (c *heldConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestMuxCloseDoesNotWaitOnHeldShip: Close never waits on a flush whose
// ship the conn is holding. Closing the conn releases that ship, and every
// envelope in it or queued behind it is counted lost, not dropped
// silently; lane sends after Close fail with ErrMuxClosed.
func TestMuxCloseDoesNotWaitOnHeldShip(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ca, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Attach(2); err != nil {
		t.Fatal(err)
	}
	hc := &heldConn{Conn: ca, closed: make(chan struct{})}
	m := market.NewMux(hc)
	lane, err := m.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	env := wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: 1, Block: wire.BlockTask, Step: 1}}
	if err := lane.Send(env); err != nil { // synchronous: the destination is new
		t.Fatal(err)
	}
	hc.held.Store(true)
	if err := lane.Send(env); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); hc.holding.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the flush never reached the conn")
		}
		time.Sleep(time.Millisecond)
	}
	const behind = 19
	for i := 0; i < behind; i++ {
		if err := lane.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Mux.Close waited on a held ship")
	}
	m.DrainSends()
	if st := m.Stats(); st.EnvelopesLost != 1+behind {
		t.Fatalf("EnvelopesLost = %d, want the held one and the %d behind it (%+v)", st.EnvelopesLost, behind, st)
	}
	if err := lane.Send(env); !errors.Is(err, market.ErrMuxClosed) {
		t.Fatalf("send after Close: %v, want ErrMuxClosed", err)
	}
}

// TestMuxCloseShipsQueuedSends: sends return once queued, and Close ships
// what they queued before it closes the conn. Each envelope is delivered
// or, if it was behind a ship still in flight at Close, counted lost —
// never neither.
func TestMuxCloseShipsQueuedSends(t *testing.T) {
	ma, mb := twoMuxes(t)
	a1, err := ma.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := mb.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	b1.SetHandler(func(wire.Envelope) { delivered.Add(1) })
	b1.SetBatchHandler(func(envs []wire.Envelope) { delivered.Add(int64(len(envs))) })
	const n = 200
	for i := 0; i < n; i++ {
		env := wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i + 1), Block: wire.BlockTask, Step: 1}}
		if err := a1.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	ma.DrainSends()
	if got, lost := delivered.Load(), ma.Stats().EnvelopesLost; got+lost != n {
		t.Fatalf("%d delivered + %d lost, want %d", got, lost, n)
	}
}

// TestMuxCloseOverHeldWindow: Mux.Close flushes its coalescer before it
// closes the conn, and over Resilient a ship Flush starts itself waits in
// the link layer for window room. With the peer's acks cut off that wait
// ends when the failure detector declares the peer dead, so Close returns
// within DeadAfter heartbeat intervals plus two ticks. Every envelope sent
// is delivered, counted in the link layer's Overflow (the peer was
// declared dead first, and the ship returned nil), or counted in
// EnvelopesLost (the conn closed first) — exactly one of the three.
func TestMuxCloseOverHeldWindow(t *testing.T) {
	cfg := transport.ResilientConfig{HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4, MaxUnacked: 4}
	bound := time.Duration(cfg.DeadAfter+2) * cfg.HeartbeatEvery
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	rn := transport.Resilient(hub, cfg)
	t.Cleanup(func() { rn.Close() })
	ca, err := rn.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := rn.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	hub.SetPartition(2, 1, true) // no ack, no heartbeat: node 1's window never drains
	ma, mb := market.NewMux(ca), market.NewMux(cb)
	t.Cleanup(func() { mb.Close() })
	a1, err := ma.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := mb.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	b1.SetHandler(func(wire.Envelope) { delivered.Add(1) })
	b1.SetBatchHandler(func(envs []wire.Envelope) { delivered.Add(int64(len(envs))) })

	const n = 40
	for i := 0; i < n; i++ {
		env := wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i + 1), Block: wire.BlockTask, Step: 1}}
		if err := a1.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > bound {
		t.Errorf("Mux.Close took %v over a held window, bound %v", d, bound)
	}
	ma.DrainSends()
	overflow := ca.(transport.HealthReporter).LinkStats().Overflow
	lost := ma.Stats().EnvelopesLost
	t.Logf("%d delivered, %d overflow, %d lost", delivered.Load(), overflow, lost)
	if got := delivered.Load(); got+overflow+lost != n {
		t.Fatalf("%d delivered + %d overflow + %d lost, want %d", got, overflow, lost, n)
	}
}
