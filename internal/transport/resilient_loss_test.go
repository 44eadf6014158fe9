package transport_test

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/transport"
	"distauction/internal/transport/faultnet"
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
// superframe of eight, and reports the deepest window it saw. The link layer
// has no backpressure of its own (the protocol above it is a closed loop),
// so the sender supplies a little: with its default window half full it
// pauses, for at most 2 ms per 64 frames. Without that the outcome hangs on
// the scheduler: while one flooder runs alone its acks come every ackEvery
// frames, the RTT estimate grows to a quarter of a window or more, and a
// frame whose first resend is lost too waits out the rest of it. Even fully
// stalled this is 32 000 frames/s — a window every 32 ms, far inside
// ResendAfter — and a link whose ack is pinned still overflows 16 ms later.
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
		if i%64 == 0 {
			depth := rc.UnackedDepth(to)
			maxDepth = max(maxDepth, depth)
			for tries := 0; depth >= 512 && tries < 20; tries++ {
				time.Sleep(100 * time.Microsecond)
				depth = rc.UnackedDepth(to)
			}
		}
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
// waiting for the timer would let the window evict the frame first and pin
// the cumulative ack behind a hole nobody can fill. Exactly-once delivery,
// no eviction, at most 1.5 resends per dropped frame, and a window that
// never fills.
func TestResilientGapRepairUnderWindowPressure(t *testing.T) {
	const count = 40000
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	fnet := faultnet.Wrap(hub, faultnet.Config{Seed: 19, Default: faultnet.Profile{Drop: 0.01}})
	rnet := transport.Resilient(fnet, transport.ResilientConfig{})
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

	ls, dropped := rnet.LinkStats(), fnet.FaultStats().Dropped
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
	if d := max(depth[0], depth[1]); d >= 1024 {
		t.Errorf("window reached its bound (%d frames)", d)
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
// 5 % of its frames back for 2–6 ms, under a one-way flood that turns a
// 128-frame window over many times in that. A late frame pins the
// cumulative ack, the window fills and evicts it, and the receiver's gap
// hint draws a floor over a frame that is still on the wire. Giving a frame
// up must not mark it delivered: when the original lands it is released,
// once.
func TestResilientLateFrameOutlivesWindow(t *testing.T) {
	const count = 60000
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	fnet := faultnet.Wrap(hub, faultnet.Config{Seed: 23, Default: faultnet.Profile{
		DelayProb: 0.05, DelayMin: 2 * time.Millisecond, DelayMax: 6 * time.Millisecond,
	}})
	rnet := transport.Resilient(fnet, transport.ResilientConfig{MaxUnacked: 128})
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
	flood(t, c1, 1, 2, count)
	select {
	case <-at2.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("timed out with %d of %d messages undelivered on a link that drops nothing; link stats %+v",
			at2.left.Load(), count, rnet.LinkStats())
	}
	at2.assertExactlyOnce(t, "1→2")
	awaitDepth(t, c1, 2)
	ls, fs := rnet.LinkStats(), fnet.FaultStats()
	t.Logf("delayed %d, link stats %+v", fs.Delayed, ls)
	if fs.Dropped != 0 {
		t.Fatalf("faultnet dropped %d frames on a delay-only profile", fs.Dropped)
	}
	if ls.Overflow == 0 {
		t.Fatal("the window never overflowed: the test proved nothing")
	}
}
