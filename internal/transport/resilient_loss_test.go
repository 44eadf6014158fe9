package transport_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/testleak"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// tally counts deliveries per message number; the payload is the number.
type tally struct {
	seen []atomic.Int32
	gone []bool       // sends that were rejected: must never arrive
	got  atomic.Int64 // distinct messages delivered
	left atomic.Int64 // distinct messages still awaited
	done chan struct{}
}

func newTally(count int) *tally {
	t := &tally{seen: make([]atomic.Int32, count), gone: make([]bool, count), done: make(chan struct{})}
	t.left.Store(int64(count))
	return t
}

func (ta *tally) handle(env wire.Envelope) {
	i := binary.BigEndian.Uint32(env.Payload)
	if ta.seen[i].Add(1) == 1 && !ta.gone[i] {
		ta.got.Add(1)
		if ta.left.Add(-1) == 0 {
			close(ta.done)
		}
	}
}

// forget marks message i as one that must never arrive (its send was
// rejected), so the tally does not wait for it. Call before traffic starts.
func (ta *tally) forget(i int) {
	ta.gone[i] = true
	if ta.left.Add(-1) == 0 {
		close(ta.done)
	}
}

func (ta *tally) install(conn transport.Conn) {
	conn.SetHandler(ta.handle)
	conn.SetBatchHandler(func(envs []wire.Envelope) {
		for i := range envs {
			ta.handle(envs[i])
		}
	})
}

// assertExactlyOnce fails unless every awaited message arrived once and
// every forgotten one never did.
func (ta *tally) assertExactlyOnce(t *testing.T, link string) {
	t.Helper()
	for i := range ta.seen {
		switch n := ta.seen[i].Load(); {
		case ta.gone[i] && n != 0:
			t.Fatalf("%s: message %d rejected at send but delivered %d times", link, i, n)
		case !ta.gone[i] && n != 1:
			t.Fatalf("%s: message %d delivered %d times", link, i, n)
		}
	}
}

func numbered(from, to wire.NodeID, i int) wire.Envelope {
	return wire.Envelope{
		From:    from,
		To:      to,
		Tag:     wire.Tag{Round: uint64(i), Block: wire.BlockTask, Step: 1},
		Payload: binary.BigEndian.AppendUint32(nil, uint32(i)),
	}
}

// flood sends messages [0,count) from→to, every third stretch as a
// superframe of eight, and reports the deepest window it saw.
func flood(t *testing.T, conn transport.Conn, from, to wire.NodeID, count int) (maxDepth int) {
	rc := conn.(*transport.ResilientConn)
	batch := make([]wire.Envelope, 0, 8)
	for i := 0; i < count; {
		if i%24 < 8 && i+8 <= count {
			batch = batch[:0]
			for j := 0; j < 8; j++ {
				batch = append(batch, numbered(from, to, i+j))
			}
			if err := rc.SendBatch(batch); err != nil {
				t.Error(err)
				return
			}
			i += 8
		} else {
			if err := rc.Send(numbered(from, to, i)); err != nil {
				t.Error(err)
				return
			}
			i++
		}
		maxDepth = max(maxDepth, rc.UnackedDepth(to))
	}
	return maxDepth
}

// awaitDepth waits for the sender's window toward peer to drain below 64.
func awaitDepth(t *testing.T, conn transport.Conn, peer wire.NodeID) {
	t.Helper()
	rc := conn.(*transport.ResilientConn)
	deadline := time.Now().Add(30 * time.Second)
	for rc.UnackedDepth(peer) >= 64 {
		if time.Now().After(deadline) {
			t.Fatalf("node %d still holds %d unacked frames for %d", rc.Self(), rc.UnackedDepth(peer), peer)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResilientGapRepairUnderWindowPressure: 1 % seeded frame loss both
// ways on a link whose window (1024 frames) turns over many times inside
// one resend timeout (200 ms). A hole must be repaired when it is seen —
// waiting for the timer would hold the window, and with it the sender, for
// the whole timeout. Exactly-once delivery, nothing dropped at the window
// and at most 1.5 resends per dropped frame.
func TestResilientGapRepairUnderWindowPressure(t *testing.T) {
	const count = 40000
	hub := transport.NewHub(transport.LatencyModel{}, 19)
	hub.SetFaults(transport.Faults{Drop: 0.01})
	rnet := transport.Resilient(hub, transport.ResilientConfig{})
	defer rnet.Close()
	c1, err := rnet.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rnet.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	at2, at1 := newTally(count), newTally(count)
	at2.install(c2)
	at1.install(c1)

	var wg sync.WaitGroup
	var depth [2]int
	wg.Add(2)
	go func() { defer wg.Done(); depth[0] = flood(t, c1, 1, 2, count) }()
	go func() { defer wg.Done(); depth[1] = flood(t, c2, 2, 1, count) }()
	wg.Wait()
	for _, ta := range []*tally{at2, at1} {
		select {
		case <-ta.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("timed out with %d of %d messages undelivered; link stats %+v",
				ta.left.Load(), count, rnet.LinkStats())
		}
	}
	at2.assertExactlyOnce(t, "1→2")
	at1.assertExactlyOnce(t, "2→1")
	awaitDepth(t, c1, 2)
	awaitDepth(t, c2, 1)

	ls, dropped := rnet.LinkStats(), hub.FaultStats().Dropped
	t.Logf("dropped %d, link stats %+v, deepest window %v", dropped, ls, depth)
	if dropped < count/100 {
		t.Fatalf("only %d frames dropped: the test proved nothing", dropped)
	}
	if ls.Overflow != 0 {
		t.Errorf("Overflow = %d, want 0", ls.Overflow)
	}
	if float64(ls.Resends) > 1.5*float64(dropped) {
		t.Errorf("Resends = %d for %d dropped frames, want ≤ 1.5 per drop", ls.Resends, dropped)
	}
}

// TestResilientRejectedSendLeavesNoGhost: node 1 opens first and sends to
// peers that have not attached yet. Those sends fail synchronously after
// their seqs were assigned; the link must neither keep ghosts that pin the
// peers' cumulative ack nor deliver what it told the caller it could not
// send. The traffic that follows is a closed loop like the protocol above
// the link — every message is echoed, at most inFlight await their echo —
// so a window only fills if acks stop moving.
func TestResilientRejectedSendLeavesNoGhost(t *testing.T) {
	const (
		count    = 6000
		early    = 5 // rejected sends per peer: two singles and one superframe
		inFlight = 64
	)
	peers := []wire.NodeID{2, 3}
	tn := transport.NewTCPNetwork(transport.TCPNetworkConfig{Members: []wire.NodeID{1, 2, 3}, Secret: []byte("ghost-test")})
	rnet := transport.Resilient(tn, transport.ResilientConfig{})
	defer rnet.Close()
	attach := func(id wire.NodeID) *transport.ResilientConn {
		c, err := rnet.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		return c.(*transport.ResilientConn)
	}
	c1 := attach(1)
	sent, echoed := map[wire.NodeID]*tally{}, map[wire.NodeID]*tally{}
	for _, id := range peers {
		sent[id], echoed[id] = newTally(count), newTally(count)
	}
	c1.SetHandler(func(env wire.Envelope) { echoed[env.From].handle(env) })

	for _, to := range peers {
		for i := 0; i < 2; i++ {
			if err := c1.Send(numbered(1, to, i)); err == nil {
				t.Fatalf("send to unattached node %d succeeded", to)
			}
		}
		batch := []wire.Envelope{numbered(1, to, 2), numbered(1, to, 3), numbered(1, to, 4)}
		if err := c1.SendBatch(batch); err == nil {
			t.Fatalf("superframe to unattached node %d succeeded", to)
		}
		for i := 0; i < early; i++ {
			sent[to].forget(i)
			echoed[to].forget(i)
		}
	}

	conns := map[wire.NodeID]*transport.ResilientConn{}
	for _, id := range peers {
		c := attach(id)
		c.SetHandler(func(env wire.Envelope) {
			sent[id].handle(env)
			if err := c.Send(numbered(id, 1, int(binary.BigEndian.Uint32(env.Payload)))); err != nil {
				t.Error(err)
			}
		})
		conns[id] = c
	}
	var wg sync.WaitGroup
	for _, to := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := early; i < count && !t.Failed(); i++ {
				for int64(i-early)-echoed[to].got.Load() >= inFlight && !t.Failed() {
					time.Sleep(50 * time.Microsecond)
				}
				if err := c1.Send(numbered(1, to, i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for _, id := range peers {
		for _, ta := range []*tally{sent[id], echoed[id]} {
			select {
			case <-ta.done:
			case <-time.After(60 * time.Second):
				t.Fatalf("timed out with %d messages undelivered on a link of node %d; link stats %+v",
					ta.left.Load(), id, rnet.LinkStats())
			}
		}
		sent[id].assertExactlyOnce(t, "1→peer")
		echoed[id].assertExactlyOnce(t, "peer→1")
		awaitDepth(t, c1, id)
		awaitDepth(t, conns[id], 1)
	}
	if ls := rnet.LinkStats(); ls.Overflow != 0 {
		t.Errorf("Overflow = %d over a loss-free closed loop, want 0 (link stats %+v)", ls.Overflow, ls)
	}
}

// TestResilientLateFrameOutlivesWindow: a link that loses nothing but holds
// 5 % of its frames back for 2–6 ms, under a one-way flood that would turn
// a 128-frame window over many times in that. A late frame pins the
// cumulative ack and the window fills: the sender must wait for it, not
// give it up, and every message arrives exactly once.
//
// The window fills by construction, not by flood speed: the flood starts
// while the Hub holds every hop, acks included, for 80 ms, so no ack can
// reach the sender before 160 ms — 128 frames' worth of sends is far less
// than that even under the race detector. Once the sender is seen at the
// bound, the 5 % profile replaces the hold. 160 ms stays under the 200 ms
// resend timeout and far under the 600 ms dead-peer verdict.
func TestResilientLateFrameOutlivesWindow(t *testing.T) {
	const count, window = 60000, 128
	const hold = 80 * time.Millisecond
	hub := transport.NewHub(transport.LatencyModel{}, 23)
	hub.SetFaults(transport.Faults{DelayProb: 1, DelayMin: hold, DelayMax: hold})
	rnet := transport.Resilient(hub, transport.ResilientConfig{MaxUnacked: window})
	defer rnet.Close()
	c1, err := rnet.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rnet.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	at2 := newTally(count)
	at2.install(c2)
	var depth int
	flooded := make(chan struct{})
	go func() { defer close(flooded); depth = flood(t, c1, 1, 2, count) }()
	waitFor(t, "the held first window to fill", func() bool {
		return c1.(*transport.ResilientConn).UnackedDepth(2) >= window
	})
	hub.SetFaults(transport.Faults{DelayProb: 0.05, DelayMin: 2 * time.Millisecond, DelayMax: 6 * time.Millisecond})
	select {
	case <-at2.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("timed out with %d of %d messages undelivered on a link that drops nothing; link stats %+v",
			at2.left.Load(), count, rnet.LinkStats())
	}
	<-flooded
	at2.assertExactlyOnce(t, "1→2")
	awaitDepth(t, c1, 2)
	ls, fs := rnet.LinkStats(), hub.FaultStats()
	t.Logf("delayed %d, link stats %+v", fs.Delayed, ls)
	if fs.Dropped != 0 {
		t.Fatalf("the Hub dropped %d frames on a delay-only profile", fs.Dropped)
	}
	if ls.Overflow != 0 {
		t.Errorf("Overflow = %d on a link whose peer never died, want 0", ls.Overflow)
	}
	if depth < window {
		t.Fatalf("deepest window %d: the flood never reached the bound, the test proved nothing", depth)
	}
}

// floorNet counts the link floors its attachments send.
type floorNet struct {
	transport.Network
	floors atomic.Int64
}

func (n *floorNet) Attach(id wire.NodeID) (transport.Conn, error) {
	c, err := n.Network.Attach(id)
	if err != nil {
		return nil, err
	}
	return floorConn{c, &n.floors}, nil
}

type floorConn struct {
	transport.Conn
	floors *atomic.Int64
}

func (c floorConn) Send(env wire.Envelope) error {
	if env.Tag.Block == wire.BlockLink && env.Tag.Step == transport.LinkFloor {
		c.floors.Add(1)
	}
	return c.Conn.Send(env)
}

// flowPair is a Resilient(Hub) link from node 1 to node 2, with a tally at
// node 2 awaiting count messages.
type flowPair struct {
	hub    *transport.Hub
	floors *floorNet
	rnet   *transport.ResilientNetwork
	c1     *transport.ResilientConn
	at2    *tally
}

func openFlowPair(t *testing.T, cfg transport.ResilientConfig, count int) *flowPair {
	t.Helper()
	fp := &flowPair{hub: transport.NewHub(transport.LatencyModel{}, 1)}
	fp.floors = &floorNet{Network: fp.hub}
	fp.rnet = transport.Resilient(fp.floors, cfg)
	t.Cleanup(func() { fp.rnet.Close() })
	c1, err := fp.rnet.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fp.rnet.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	fp.c1 = c1.(*transport.ResilientConn)
	fp.at2 = newTally(count)
	fp.at2.install(c2)
	return fp
}

// await waits for every message node 2 still awaits, then checks each
// arrived exactly once.
func (fp *flowPair) await(t *testing.T) {
	t.Helper()
	select {
	case <-fp.at2.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out with %d messages undelivered; link stats %+v", fp.at2.left.Load(), fp.rnet.LinkStats())
	}
	fp.at2.assertExactlyOnce(t, "1→2")
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResilientWindowIsFlowControl: a full window holds its sender until
// acks make room, and gives nothing up while the peer may still be alive.
// The wait ends one of three ways — acks, the peer declared dead, or Close —
// and only the second drops an envelope, unsequenced, so the receiver is
// left no hole to be floored over.
func TestResilientWindowIsFlowControl(t *testing.T) {
	const window = 64

	t.Run("acks cut: the sender waits", func(t *testing.T) {
		const count = 3 * window
		fp := openFlowPair(t, transport.ResilientConfig{MaxUnacked: window}, count)
		fp.hub.SetPartition(2, 1, true)
		var sent atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < count; i++ {
				if err := fp.c1.Send(numbered(1, 2, i)); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
			}
		}()
		waitFor(t, "a full window", func() bool { return fp.c1.UnackedDepth(2) >= window || sent.Load() == count })
		time.Sleep(50 * time.Millisecond) // room for a sender that does not wait to run on
		if n, d := sent.Load(), fp.c1.UnackedDepth(2); n != window || d != window {
			t.Fatalf("with acks cut, %d sends returned and %d frames are unacked; want both %d", n, d, window)
		}
		if ov := fp.rnet.LinkStats().Overflow; ov != 0 {
			t.Fatalf("Overflow = %d with a live peer, want 0", ov)
		}
		fp.hub.SetPartition(2, 1, false)
		<-done
		fp.await(t)
	})

	t.Run("peer declared dead: the wait ends, the envelope is dropped unsequenced", func(t *testing.T) {
		const count = 2 * window
		cfg := transport.ResilientConfig{HeartbeatEvery: 20 * time.Millisecond, DeadAfter: 10, MaxUnacked: window}
		fp := openFlowPair(t, cfg, count)
		dropped := window + 1 // the send that waits on the isolated peer
		fp.at2.forget(dropped)
		if err := fp.c1.Send(numbered(1, 2, 0)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "message 0 and its ack", func() bool { return fp.at2.got.Load() == 1 && fp.c1.UnackedDepth(2) == 0 })

		cut := time.Now()
		fp.hub.SetPartition(1, 2, true)
		fp.hub.SetPartition(2, 1, true)
		for i := 1; i <= window; i++ {
			if err := fp.c1.Send(numbered(1, 2, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fp.c1.Send(numbered(1, 2, dropped)); err != nil {
			t.Fatalf("send to a dead peer: %v, want nil", err)
		}
		// The verdict lands on the first tick past DeadAfter intervals of
		// silence, and the peer was last heard at most a tick before the
		// cut; 100 ms more is scheduling allowance on a loaded host.
		bound := time.Duration(cfg.DeadAfter+1)*cfg.HeartbeatEvery + cfg.HeartbeatEvery + 100*time.Millisecond
		if took := time.Since(cut); took > bound {
			t.Errorf("the send waited %v on an isolated peer, want ≤ %v", took, bound)
		}
		if !fp.c1.PeerDead(2) {
			t.Fatal("the send returned before the peer was declared dead")
		}
		if ov := fp.rnet.LinkStats().Overflow; ov != 1 {
			t.Fatalf("Overflow = %d, want 1 (the envelope the dead peer's window had no room for)", ov)
		}

		fp.hub.SetPartition(1, 2, false)
		fp.hub.SetPartition(2, 1, false)
		// Until node 2 is heard again a full window still drops at once.
		waitFor(t, "node 2 heard again", func() bool { return !fp.c1.PeerDead(2) })
		for i := dropped + 1; i < count; i++ {
			if err := fp.c1.Send(numbered(1, 2, i)); err != nil {
				t.Fatal(err)
			}
		}
		fp.await(t)
		if n := fp.floors.floors.Load(); n != 0 {
			t.Fatalf("%d floors sent: a dropped envelope must leave no hole", n)
		}
	})

	t.Run("Close releases a waiting sender", func(t *testing.T) {
		testleak.Check(t, func() {
			fp := openFlowPair(t, transport.ResilientConfig{MaxUnacked: window}, window+1)
			fp.hub.SetPartition(2, 1, true)
			for i := 0; i < window; i++ {
				if err := fp.c1.Send(numbered(1, 2, i)); err != nil {
					t.Fatal(err)
				}
			}
			errc := make(chan error, 1)
			go func() { errc <- fp.c1.Send(numbered(1, 2, window)) }()
			select {
			case err := <-errc:
				t.Fatalf("send into a full window returned %v without waiting", err)
			case <-time.After(20 * time.Millisecond):
			}
			start := time.Now()
			fp.rnet.Close()
			select {
			case err := <-errc:
				if !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("released send returned %v, want ErrClosed", err)
				}
				if took := time.Since(start); took > 100*time.Millisecond {
					t.Fatalf("Close released the waiting send after %v, want ≤ 100ms", took)
				}
			case <-time.After(100 * time.Millisecond):
				t.Fatal("Close did not release a send waiting on a full window within 100ms")
			}
		})
	})

	t.Run("a batch larger than the window waits for it to empty", func(t *testing.T) {
		const count = 3 * window
		fp := openFlowPair(t, transport.ResilientConfig{MaxUnacked: window}, count)
		if err := fp.c1.Send(numbered(1, 2, 0)); err != nil {
			t.Fatal(err)
		}
		batch := make([]wire.Envelope, 0, count-1)
		for i := 1; i < count; i++ {
			batch = append(batch, numbered(1, 2, i))
		}
		if err := fp.c1.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		fp.await(t)
		if ov := fp.rnet.LinkStats().Overflow; ov != 0 {
			t.Fatalf("Overflow = %d, want 0", ov)
		}
	})
}
