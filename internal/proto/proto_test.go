package proto

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/transport"
	"distauction/internal/wire"
)

// newCluster attaches n provider peers (IDs 1..n) to a fresh zero-latency hub.
func newCluster(t *testing.T, n int) []*Peer {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	peers := make([]*Peer, n)
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = NewPeer(conn, ids)
		t.Cleanup(func(p *Peer) func() { return func() { p.Close() } }(peers[i]))
	}
	return peers
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func tag(round uint64, block wire.BlockID, inst uint32, step uint8) wire.Tag {
	return wire.Tag{Round: round, Block: block, Instance: inst, Step: step}
}

func TestSendReceiveByTag(t *testing.T) {
	peers := newCluster(t, 2)
	ctx := testCtx(t)
	tA := tag(1, wire.BlockTask, 0, 1)
	tB := tag(1, wire.BlockTask, 0, 2)

	// Send step-2 first; a receiver waiting for step-1 must not see it.
	if err := peers[0].Send(2, tB, []byte("step2")); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].Send(2, tA, []byte("step1")); err != nil {
		t.Fatal(err)
	}
	got, err := peers[1].Receive(ctx, tA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "step1" {
		t.Errorf("got %q, want step1", got)
	}
	got, err = peers[1].Receive(ctx, tB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "step2" {
		t.Errorf("got %q, want step2", got)
	}
}

func TestReceiveBlocksUntilArrival(t *testing.T) {
	peers := newCluster(t, 2)
	ctx := testCtx(t)
	tg := tag(1, wire.BlockCoin, 3, 1)
	done := make(chan []byte, 1)
	go func() {
		got, err := peers[1].Receive(ctx, tg, 1)
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	time.Sleep(10 * time.Millisecond)
	if err := peers[0].Send(2, tg, []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if string(got) != "late" {
			t.Errorf("got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receive never woke up")
	}
}

func TestSelfSendIsLocal(t *testing.T) {
	peers := newCluster(t, 1)
	ctx := testCtx(t)
	tg := tag(1, wire.BlockTask, 0, 1)
	if err := peers[0].Send(1, tg, []byte("self")); err != nil {
		t.Fatal(err)
	}
	got, err := peers[0].Receive(ctx, tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "self" {
		t.Errorf("got %q", got)
	}
}

func TestDuplicateIdenticalIgnored(t *testing.T) {
	peers := newCluster(t, 2)
	ctx := testCtx(t)
	tg := tag(1, wire.BlockTask, 0, 1)
	if err := peers[0].Send(2, tg, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].Send(2, tg, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[1].Receive(ctx, tg, 1); err != nil {
		t.Fatalf("identical duplicate must not abort: %v", err)
	}
	if err := peers[1].AbortErr(1); err != nil {
		t.Errorf("round aborted on identical duplicate: %v", err)
	}
}

func TestEquivocationAbortsRound(t *testing.T) {
	peers := newCluster(t, 3)
	ctx := testCtx(t)
	tg := tag(7, wire.BlockTransfer, 1, 1)

	// Provider 1 equivocates toward provider 2.
	if err := peers[0].Send(2, tg, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].Send(2, tg, []byte("y")); err != nil {
		t.Fatal(err)
	}

	// Provider 2 must abort round 7.
	deadline := time.Now().Add(5 * time.Second)
	for peers[1].AbortErr(7) == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := peers[1].AbortErr(7)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("round not aborted at receiver: %v", err)
	}

	// And the abort must propagate to provider 3, whose receive fails.
	if _, err := peers[2].Receive(ctx, tg, 1); !errors.Is(err, ErrAborted) {
		t.Fatalf("provider 3 receive: got %v, want abort", err)
	}

	// Other rounds are unaffected.
	if err := peers[1].AbortErr(8); err != nil {
		t.Errorf("round 8 poisoned: %v", err)
	}
}

func TestAbortWakesBlockedReceivers(t *testing.T) {
	peers := newCluster(t, 2)
	ctx := testCtx(t)
	tg := tag(3, wire.BlockCoin, 0, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := peers[1].Receive(ctx, tg, 1)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	peers[0].Fail(3, "test", errors.New("test abort"))
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrAborted) {
			t.Errorf("got %v, want abort", err)
		}
		var ae *AbortError
		if !errors.As(err, &ae) || ae.Round != 3 {
			t.Errorf("abort error detail: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver not woken by abort")
	}
}

// sendCounter counts the envelopes a peer hands its transport.
type sendCounter struct {
	transport.Conn
	n atomic.Int32
}

func (c *sendCounter) Send(env wire.Envelope) error {
	c.n.Add(1)
	return c.Conn.Send(env)
}

// A round's first abort stands: a second Fail returns it and sends nothing.
func TestAbortIsIdempotentAndLocal(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	conn, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	sent := &sendCounter{Conn: conn}
	p := NewPeer(sent, []wire.NodeID{1, 2})
	t.Cleanup(func() { p.Close() })
	first := p.Fail(1, "test", errors.New("first"))
	if n := sent.n.Load(); n != 1 {
		t.Fatalf("first Fail sent %d aborts, want 1", n)
	}
	if second := p.Fail(1, "test", errors.New("second")); second != first {
		t.Errorf("second Fail returned %v, want the first abort %v", second, first)
	}
	if n := sent.n.Load(); n != 1 {
		t.Errorf("second Fail sent %d more aborts, want none", n-1)
	}
	var ae *AbortError
	if err := p.AbortErr(1); !errors.As(err, &ae) || ae.Reason != "test: first" {
		t.Errorf("first abort reason must win: %v", err)
	}
}

func TestGatherAppendInSetOrder(t *testing.T) {
	peers := newCluster(t, 3)
	ctx := testCtx(t)
	tg := tag(1, wire.BlockValidate, 0, 1)
	for _, p := range peers {
		if err := p.BroadcastProviders(tg, []byte{byte(p.Self())}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		got, err := p.GatherAppend(ctx, tg, p.Providers(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("gathered %d, want 3", len(got))
		}
		for i, payload := range got {
			if id := p.Providers()[i]; len(payload) != 1 || payload[0] != byte(id) {
				t.Errorf("payload %d (from %d) = %v", i, id, payload)
			}
		}
	}
}

// deadConn reports one peer dead, as the link layer's failure detector does
// once the peer misses its heartbeats.
type deadConn struct {
	transport.Conn
	dead wire.NodeID
}

func (c deadConn) PeerDead(id wire.NodeID) bool { return id == c.dead }

// TestUnanimous covers the one unanimity-or-⊥ check: its value on
// agreement, and the abort and culprit of each way it fails.
func TestUnanimous(t *testing.T) {
	set := []wire.NodeID{1, 2, 3}
	tg := tag(1, wire.BlockValidate, 0, 1)
	cases := []struct {
		name    string
		sent    []string // per member of set; "" stays silent
		aborted string   // the round's earlier abort reason, if any
		want    string
		code    AbortCode
		culprit wire.NodeID
	}{
		{name: "all equal", sent: []string{"v", "v", "v"}, want: "v"},
		{name: "one differs", sent: []string{"v", "v", "w"}, code: AbortProtocol, culprit: wire.Broadcast},
		{name: "dead member silent", sent: []string{"v", "v", ""}, code: AbortDisconnect, culprit: 3},
		{name: "already aborted", sent: []string{"v", "v", "v"}, aborted: "earlier verdict",
			code: AbortUnknown, culprit: wire.Broadcast},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub := transport.NewHub(transport.LatencyModel{}, 1)
			t.Cleanup(func() { hub.Close() })
			peers := make([]*Peer, len(set))
			for i, id := range set {
				conn, err := hub.Attach(id)
				if err != nil {
					t.Fatal(err)
				}
				var c transport.Conn = conn
				if id == 1 {
					c = deadConn{Conn: conn, dead: 3}
				}
				peers[i] = NewPeer(c, set)
				t.Cleanup(func(p *Peer) func() { return func() { p.Close() } }(peers[i]))
			}
			if tc.aborted != "" {
				peers[0].Fail(1, "test", errors.New(tc.aborted))
			}
			for i, v := range tc.sent {
				if v != "" {
					if err := peers[i].Send(1, tg, []byte(v)); err != nil {
						t.Fatal(err)
					}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			got, gathered, err := peers[0].Unanimous(ctx, tg, set, nil)
			if tc.want != "" {
				if err != nil || string(got) != tc.want || len(gathered) != len(set) {
					t.Fatalf("got %q (%d gathered), %v; want %q", got, len(gathered), err, tc.want)
				}
				return
			}
			var ae *AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("got %q, %v; want an abort", got, err)
			}
			if ae.Code != tc.code || ae.Culprit != tc.culprit {
				t.Errorf("abort %v culprit %d, want %v culprit %d (reason %q)", ae.Code, ae.Culprit, tc.code, tc.culprit, ae.Reason)
			}
			if tc.aborted != "" && ae.Reason != "test: "+tc.aborted {
				t.Errorf("reason %q: the round's earlier abort must stand", ae.Reason)
			}
			if latched := peers[0].AbortErr(1); latched != error(ae) {
				t.Errorf("returned %v, but the round latched %v", ae, latched)
			}
		})
	}
	t.Run("warm buffer allocates nothing", func(t *testing.T) {
		peers := newCluster(t, 3)
		ctx := testCtx(t)
		for _, p := range peers {
			if err := p.BroadcastProviders(tg, []byte("same")); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([][]byte, 0, len(set))
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if _, buf, err = peers[0].Unanimous(ctx, tg, set, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Unanimous allocated %.1f times per call with a warm buffer", allocs)
		}
	})
}

func TestReceiveContextCancel(t *testing.T) {
	peers := newCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	tg := tag(1, wire.BlockTask, 0, 1)
	if _, err := peers[1].Receive(ctx, tg, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v", err)
	}
	// The waiter must have been deregistered: a late message is buffered,
	// not delivered to a dead channel, and can still be received.
	if err := peers[0].Send(2, tg, []byte("late")); err != nil {
		t.Fatal(err)
	}
	got, err := peers[1].Receive(testCtx(t), tg, 1)
	if err != nil || string(got) != "late" {
		t.Errorf("late receive = %q, %v", got, err)
	}
}

func TestEndRoundDropsState(t *testing.T) {
	peers := newCluster(t, 2)
	ctx := testCtx(t)
	tg := tag(1, wire.BlockTask, 0, 1)
	if err := peers[0].Send(2, tg, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[1].Receive(ctx, tg, 1); err != nil {
		t.Fatal(err)
	}
	peers[1].EndRound(1)

	// A message for an ended round is dropped silently, and a receive on it
	// fails fast instead of resurrecting the retired state.
	if err := peers[0].Send(2, tg, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[1].Receive(ctx, tg, 1); !errors.Is(err, ErrRoundEnded) {
		t.Errorf("stale round receive: %v, want ErrRoundEnded", err)
	}
	if msgs, rounds := peers[1].StateSize(); msgs != 0 || rounds != 0 {
		t.Errorf("retired receive left state behind: %d msgs, %d rounds", msgs, rounds)
	}

	// Later rounds still work.
	t2 := tag(2, wire.BlockTask, 0, 1)
	if err := peers[0].Send(2, t2, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, err := peers[1].Receive(ctx, t2, 1); err != nil || string(got) != "fresh" {
		t.Errorf("round 2 receive = %q, %v", got, err)
	}
}

// TestEndRoundReclaimsPerRound buffers traffic across several live rounds
// and retires a prefix: exactly the retired rounds' state must vanish while
// later rounds stay receivable (the per-round index makes this O(retired)).
func TestEndRoundReclaimsPerRound(t *testing.T) {
	peers := newCluster(t, 2)
	ctx := testCtx(t)
	const rounds = 6
	for r := uint64(1); r <= rounds; r++ {
		if err := peers[0].Send(2, tag(r, wire.BlockTask, 0, 1), []byte{byte(r)}); err != nil {
			t.Fatal(err)
		}
		if _, err := peers[1].Receive(ctx, tag(r, wire.BlockTask, 0, 1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if msgs, live := peers[1].StateSize(); msgs != rounds || live != rounds {
		t.Fatalf("before: %d msgs, %d rounds", msgs, live)
	}
	peers[1].EndRound(3)
	if msgs, live := peers[1].StateSize(); msgs != 3 || live != 3 {
		t.Fatalf("after EndRound(3): %d msgs, %d rounds (want 3, 3)", msgs, live)
	}
	for r := uint64(4); r <= rounds; r++ {
		if got, err := peers[1].Receive(ctx, tag(r, wire.BlockTask, 0, 1), 1); err != nil || got[0] != byte(r) {
			t.Fatalf("round %d after partial reclamation: %v %v", r, got, err)
		}
	}
}

// TestRecycledRoundStateIsClean aborts and retires a round, then reuses its
// round number ranges long enough that the recycled state would resurface
// any leaked abort latch or buffered message.
func TestRecycledRoundStateIsClean(t *testing.T) {
	peers := newCluster(t, 2)
	ctx := testCtx(t)
	// Cycle through many rounds on the same shard (stride = shard count) so
	// recycled states are certainly reused.
	const stride = 8 // numShards
	for i := 0; i < 5; i++ {
		r := uint64(1 + i*stride)
		peers[1].Fail(r, "test", errors.New("poison"))
		if err := peers[1].AbortErr(r); err == nil {
			t.Fatalf("round %d not aborted", r)
		}
		peers[1].EndRound(r + stride - 1)
		next := r + stride
		if err := peers[1].AbortErr(next); err != nil {
			t.Fatalf("recycled state leaked abort into round %d: %v", next, err)
		}
		if err := peers[0].Send(2, tag(next, wire.BlockTask, 0, 1), []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if got, err := peers[1].Receive(ctx, tag(next, wire.BlockTask, 0, 1), 1); err != nil || string(got) != "fresh" {
			t.Fatalf("round %d on recycled state: %q, %v", next, got, err)
		}
	}
}

func TestCloseUnblocksReceive(t *testing.T) {
	peers := newCluster(t, 2)
	errCh := make(chan error, 1)
	go func() {
		_, err := peers[1].Receive(context.Background(), tag(1, wire.BlockTask, 0, 1), 1)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := peers[1].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerClosed) {
			t.Errorf("got %v, want ErrPeerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receive not unblocked by close")
	}
	// Receive on a closed peer fails immediately.
	if _, err := peers[1].Receive(context.Background(), tag(1, wire.BlockTask, 0, 2), 1); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("got %v", err)
	}
}

func TestNodeSetHelpers(t *testing.T) {
	a := []wire.NodeID{1, 3, 5}
	b := []wire.NodeID{2, 3, 6}
	u := UnionNodes(a, b)
	want := []wire.NodeID{1, 2, 3, 5, 6}
	if !EqualNodes(u, want) {
		t.Errorf("union = %v, want %v", u, want)
	}
	if !ContainsNode(u, 5) || ContainsNode(u, 4) {
		t.Error("ContainsNode wrong")
	}
	if EqualNodes(a, b) || !EqualNodes(a, a) {
		t.Error("EqualNodes wrong")
	}
	s := SortNodes([]wire.NodeID{5, 1, 3})
	if !EqualNodes(s, []wire.NodeID{1, 3, 5}) {
		t.Errorf("sort = %v", s)
	}
}

func TestAbortErrorFormatting(t *testing.T) {
	err := &AbortError{Round: 5, From: 2, Reason: "because"}
	if err.Error() == "" || !errors.Is(err, ErrAborted) {
		t.Error("abort error formatting/matching broken")
	}
}

// TestForbid: a provider's message under a forbidden step latches the
// registration's verdict the moment it is ingested, and tells the other
// providers; one already buffered latches at registration; another step,
// another instance, or a sender outside the provider set does not.
func TestForbid(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	var peers []*Peer
	for _, id := range []wire.NodeID{1, 2, 3, 100} {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPeer(conn, []wire.NodeID{1, 2, 3})
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
	}
	cause := &AbortError{Code: AbortProtocol, Culprit: wire.Broadcast, Reason: "forbidden"}
	forbidden := tag(1, wire.BlockBidAgree, 0, 1)

	if err := peers[0].Forbid(forbidden, cause); err != nil {
		t.Fatalf("forbid on a clean round: %v", err)
	}
	for _, harmless := range []struct {
		from int
		tag  wire.Tag
	}{
		{1, tag(1, wire.BlockBidAgree, 0, 2)}, // another step
		{1, tag(1, wire.BlockBidAgree, 1, 1)}, // another instance
		{3, forbidden},                        // not a provider
	} {
		if err := peers[harmless.from].Send(1, harmless.tag, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := peers[0].AbortErr(1); err != nil {
		t.Fatalf("a message outside the registration latched %v", err)
	}
	if err := peers[2].Send(1, forbidden, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var ae *AbortError
	if !errors.As(peers[0].AbortErr(1), &ae) || ae.Code != AbortProtocol || ae.Culprit != wire.Broadcast {
		t.Fatalf("forbidden message latched %v, want the registration's protocol verdict", peers[0].AbortErr(1))
	}
	// A receive nothing will satisfy ends when the round aborts.
	if _, err := peers[1].Receive(testCtx(t), tag(1, wire.BlockTask, 0, 1), 3); !errors.As(err, &ae) || ae.Code != AbortProtocol {
		t.Errorf("provider 2: %v, want the broadcast protocol verdict", err)
	}

	// Already buffered: the registration itself latches and returns it.
	if err := peers[2].Send(2, tag(2, wire.BlockBidAgree, 0, 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := peers[1].Forbid(tag(2, wire.BlockBidAgree, 0, 1), cause); !errors.As(err, &ae) || ae.Code != AbortProtocol {
		t.Errorf("forbid over a buffered message returned %v, want the protocol verdict", err)
	}
}
