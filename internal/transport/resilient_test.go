package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"distauction/internal/wire"
)

// fastLink is a link-layer config tight enough for test-speed failure
// detection: dead after ~120ms of silence, resends after 20ms.
func fastLink() ResilientConfig {
	return ResilientConfig{
		HeartbeatEvery: 10 * time.Millisecond,
		ResendAfter:    20 * time.Millisecond,
		SuspectAfter:   4,
		DeadAfter:      12,
	}
}

// flakyConn wraps a Conn and drops or mutes sends on command: a fault
// injector for any Conn, where the Hub's fault model (Hub.SetFaults) only
// covers the Hub's own hops.
type flakyConn struct {
	Conn
	mu      sync.Mutex
	n       int
	dropMod int  // drop every dropMod-th send (0 = none)
	mute    bool // drop everything while set
}

func (c *flakyConn) allow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mute {
		return false
	}
	c.n++
	return c.dropMod == 0 || c.n%c.dropMod != 0
}

func (c *flakyConn) setMute(m bool) {
	c.mu.Lock()
	c.mute = m
	c.mu.Unlock()
}

func (c *flakyConn) Send(env wire.Envelope) error {
	if !c.allow() {
		return nil
	}
	return c.Conn.Send(env)
}

func (c *flakyConn) SendBatch(envs []wire.Envelope) error {
	if !c.allow() {
		return nil
	}
	return c.Conn.SendBatch(envs)
}

// connNet is a Network over conns built beforehand: Attach hands out the
// one registered for an ID, so a test can slide a flakyConn (or a bare
// TCPNode) under Resilient, the path every deployment attaches through.
type connNet map[wire.NodeID]Conn

func (n connNet) Attach(id wire.NodeID) (Conn, error) {
	c, ok := n[id]
	if !ok {
		return nil, fmt.Errorf("connNet: no conn for node %d", id)
	}
	return c, nil
}

func (n connNet) Stats() StatsSnapshot { return StatsSnapshot{} }

func (n connNet) Close() error {
	for _, c := range n {
		c.Close()
	}
	return nil
}

// attachPair layers the link protocol over two prepared conns and returns
// both ends; the network closes with the test.
func attachPair(t *testing.T, a, b Conn, cfg ResilientConfig) (*ResilientConn, *ResilientConn) {
	t.Helper()
	rnet := Resilient(connNet{a.Self(): a, b.Self(): b}, cfg)
	t.Cleanup(func() { rnet.Close() })
	ca, err := rnet.Attach(a.Self())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := rnet.Attach(b.Self())
	if err != nil {
		t.Fatal(err)
	}
	return ca.(*ResilientConn), cb.(*ResilientConn)
}

// collect installs a handler that records the integer payloads of
// inbound envelopes and closes done when want have arrived.
func collect(t *testing.T, conn Conn, want int) (got *[]int, done chan struct{}) {
	t.Helper()
	var mu sync.Mutex
	seq := make([]int, 0, want)
	got = &seq
	done = make(chan struct{})
	var once sync.Once
	conn.SetHandler(func(env wire.Envelope) {
		var v int
		fmt.Sscanf(string(env.Payload), "%d", &v)
		mu.Lock()
		seq = append(seq, v)
		n := len(seq)
		mu.Unlock()
		if n == want {
			once.Do(func() { close(done) })
		}
	})
	return got, done
}

func dataEnv(from, to wire.NodeID, i int) wire.Envelope {
	return wire.Envelope{
		From:    from,
		To:      to,
		Tag:     wire.Tag{Round: uint64(i), Block: wire.BlockTask, Step: 1},
		Payload: []byte(fmt.Sprintf("%d", i)),
	}
}

// TestResilientLossyLinkExactlyOnce: a link dropping every 7th frame
// must still deliver every envelope exactly once — the seq/resend
// protocol masks the loss. Order is NOT asserted: the link layer
// deliberately releases frames on arrival (the protocol above absorbs
// reordering) and only guarantees no loss and no duplication.
func TestResilientLossyLinkExactlyOnce(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	raw1, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := hub.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyConn{Conn: raw1, dropMod: 7}
	c1, c2 := attachPair(t, flaky, raw2, fastLink())

	const count = 400
	got, done := collect(t, c2, count)
	for i := 0; i < count; i++ {
		if i%3 == 0 {
			// Exercise the batch path too.
			batch := []wire.Envelope{dataEnv(1, 2, i)}
			if err := c1.SendBatch(batch); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := c1.Send(dataEnv(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out: got %d/%d envelopes", len(*got), count)
	}
	assertExactlyOnce(t, *got, count)
	if ls := c1.LinkStats(); ls.Resends == 0 {
		t.Error("expected resends on a lossy link, counted none")
	}
}

// TestResilientHealthStateMachine: a peer gone silent is declared suspect
// then dead; when it comes back it is alive again and the recovery counts
// as a reconnect.
func TestResilientHealthStateMachine(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	raw1, _ := hub.Attach(1)
	raw2, _ := hub.Attach(2)
	flaky := &flakyConn{Conn: raw2}
	c1, c2 := attachPair(t, raw1, flaky, fastLink())

	_, done := collect(t, c2, 1)
	if err := c1.Send(dataEnv(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	<-done
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return !c1.PeerDead(2) && len(c1.PeerHealth()) > 0 }, "initial liveness")

	flaky.setMute(true) // node 2 goes dark: no heartbeats, no acks
	waitFor(func() bool { return c1.PeerDead(2) }, "dead verdict")
	for _, ph := range c1.PeerHealth() {
		if ph.Peer == 2 && ph.State != HealthDead {
			t.Fatalf("peer 2 state = %v, want dead", ph.State)
		}
	}

	flaky.setMute(false) // back from the dead
	waitFor(func() bool { return !c1.PeerDead(2) }, "recovery")
	if ls := c1.LinkStats(); ls.Reconnects == 0 {
		t.Error("recovery did not count as a reconnect")
	}
}

// TestResilientTCPKillMidSuperframe is the reconnect-with-resume test at
// the wire level: a stream of superframes over real TCP, connections
// killed repeatedly mid-stream, and every envelope must still arrive
// exactly once, deduplicated by seq — with the ledger-relevant property
// that the surviving set of envelopes equals the fault-free one.
func TestResilientTCPKillMidSuperframe(t *testing.T) {
	n1, n2 := startTCPPair(t)
	c1, c2 := attachPair(t, n1, n2, fastLink())

	const (
		count     = 600
		batchSize = 8
		killEvery = 150 // envelopes between kills: several kills mid-run
	)
	got, done := collect(t, c2, count)
	sent := 0
	batch := make([]wire.Envelope, 0, batchSize)
	for sent < count {
		batch = batch[:0]
		for len(batch) < batchSize && sent < count {
			batch = append(batch, dataEnv(1, 2, sent))
			sent++
		}
		if err := c1.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if sent%killEvery == 0 {
			// Kill both ends' conns mid-superframe-stream: in-flight frames
			// die with them; the link layer must redial and replay.
			n1.KillConns()
			n2.KillConns()
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("timed out: got %d/%d envelopes after conn kills", len(*got), count)
	}
	assertExactlyOnce(t, *got, count)
}

// assertExactlyOnce fails unless got is a permutation of 0..count-1:
// every envelope delivered exactly once, any order.
func assertExactlyOnce(t *testing.T, got []int, count int) {
	t.Helper()
	seen := make([]int, count)
	for _, v := range got {
		if v < 0 || v >= count {
			t.Fatalf("got envelope %d, outside [0,%d)", v, count)
		}
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("envelope %d delivered %d times", v, n)
		}
	}
}
