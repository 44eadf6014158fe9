package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/mechanism/doubleauction"
	"distauction/internal/mechanism/standardauction"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// cluster is a complete in-memory deployment: n open bidder sessions and m
// attached provider connections, whose sessions runRound opens only after
// the test has submitted its bids, so no bid can miss the window.
type cluster struct {
	providers, users []wire.NodeID
	conns            []transport.Conn
	bidders          []*BidderSession
	opts             []SessionOption
}

func newCluster(t *testing.T, m, n, k int, mech Mechanism) *cluster {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })

	c := &cluster{opts: []SessionOption{
		WithK(k),
		WithMechanism(mech),
		WithBidWindow(500 * time.Millisecond),
		WithRoundLimit(1),
		WithRoundTimeout(30 * time.Second),
	}}
	for i := 0; i < m; i++ {
		c.providers = append(c.providers, wire.NodeID(i+1))
	}
	for i := 0; i < n; i++ {
		c.users = append(c.users, wire.NodeID(100+i))
	}
	for _, id := range c.providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		c.conns = append(c.conns, conn)
	}
	for _, id := range c.users {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := OpenBidderSession(conn, c.providers, WithRoundLimit(1), WithRoundTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		c.bidders = append(c.bidders, b)
	}
	return c
}

// runRound opens a one-round session on every provider connection in
// c.conns (a test silences a provider by dropping its connection from the
// slice: it stays attached but never answers) and returns their round-1
// results. providerBids is nil for single-sided mechanisms.
func (c *cluster) runRound(t *testing.T, providerBids []auction.ProviderBid, opts ...SessionOption) ([]auction.Outcome, []error) {
	t.Helper()
	sessions := make([]*Session, len(c.conns))
	for i, conn := range c.conns {
		all := append(append([]SessionOption{}, c.opts...), opts...)
		if providerBids != nil {
			all = append(all, WithProviderBid(providerBids[i]))
		}
		s, err := OpenSession(conn, c.providers, c.users, all...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		sessions[i] = s
	}
	outs := make([]auction.Outcome, len(sessions))
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		out, ok := <-s.Outcomes()
		if !ok || out.Round != 1 {
			t.Fatalf("provider %d: no round-1 result (got %+v)", i, out)
		}
		outs[i], errs[i] = out.Outcome, out.Err
	}
	return outs, errs
}

// awaitBidder reads bidder i's round-1 result.
func (c *cluster) awaitBidder(t *testing.T, i int) (auction.Outcome, error) {
	t.Helper()
	out, ok := <-c.bidders[i].Outcomes()
	if !ok || out.Round != 1 {
		t.Fatalf("bidder %d: no round-1 result (got %+v)", i, out)
	}
	return out.Outcome, out.Err
}

func ub(v, d float64) auction.UserBid {
	return auction.UserBid{Value: fixed.MustFloat(v), Demand: fixed.MustFloat(d)}
}

func pb(c, cap float64) auction.ProviderBid {
	return auction.ProviderBid{Cost: fixed.MustFloat(c), Capacity: fixed.MustFloat(cap)}
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Providers: []wire.NodeID{1, 2, 3},
		Users:     []wire.NodeID{100},
		K:         1,
		Mechanism: DoubleAuction{},
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := base
	bad.K = 2 // m=3 ≤ 2k=4
	if err := bad.Validate(); err == nil {
		t.Error("m ≤ 2k accepted")
	}
	bad = base
	bad.Providers = nil
	if err := bad.Validate(); err == nil {
		t.Error("no providers accepted")
	}
	bad = base
	bad.Users = []wire.NodeID{1} // collides with provider 1
	if err := bad.Validate(); err == nil {
		t.Error("duplicate id accepted")
	}
	bad = base
	bad.Mechanism = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil mechanism accepted")
	}
	bad = base
	bad.K = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative k accepted")
	}
}

// The headline integration test: a full distributed double auction.
// All providers must produce identical outcomes, and — because the double
// auction is deterministic — that outcome must equal the trusted
// auctioneer's direct execution of A on the same agreed bids (correct
// simulation, Definition 1).
func TestDistributedDoubleAuctionRound(t *testing.T) {
	c := newCluster(t, 5, 4, 2, DoubleAuction{})
	userBids := []auction.UserBid{ub(10, 1), ub(8, 1), ub(6, 1), ub(4, 1)}
	provBids := []auction.ProviderBid{pb(1, 1), pb(2, 1), pb(3, 1), pb(4, 1), pb(5, 1)}

	for i, b := range c.bidders {
		if err := b.Submit(1, userBids[i]); err != nil {
			t.Fatal(err)
		}
	}

	outs, errs := c.runRound(t, provBids)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i, err)
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Digest() != outs[0].Digest() {
			t.Fatalf("providers %d and 0 disagree", i)
		}
	}

	// Correct simulation: identical to the trusted auctioneer's A(~b).
	direct, err := doubleauction.Solve(auction.BidVector{Users: userBids, Providers: provBids})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Digest() != direct.Digest() {
		t.Error("distributed outcome differs from direct execution of A")
	}

	// Bidders all saw it too.
	for i := range c.bidders {
		got, err := c.awaitBidder(t, i)
		if err != nil {
			t.Fatalf("bidder %d: %v", i, err)
		}
		if got.Digest() != outs[0].Digest() {
			t.Errorf("bidder %d outcome mismatch", i)
		}
	}
}

func TestDistributedStandardAuctionRound(t *testing.T) {
	mech := StandardAuction{Params: standardauction.Params{
		Capacities: []fixed.Fixed{fixed.MustInt(2), fixed.MustInt(2), fixed.MustInt(2), fixed.MustInt(2)},
		InvEpsilon: 4,
	}}
	c := newCluster(t, 4, 6, 1, mech)
	userBids := []auction.UserBid{ub(10, 1), ub(9, 1), ub(8, 1), ub(7, 1), ub(6, 1), ub(5, 1)}

	for i, b := range c.bidders {
		if err := b.Submit(1, userBids[i]); err != nil {
			t.Fatal(err)
		}
	}
	outs, errs := c.runRound(t, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i, err)
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Digest() != outs[0].Digest() {
			t.Fatalf("providers disagree")
		}
	}
	out := outs[0]
	if err := out.Alloc.CheckFeasible(mech.Params.Capacities); err != nil {
		t.Errorf("infeasible outcome: %v", err)
	}
	// Capacity 8 total, demand 6: everyone fits, and with zero contention
	// VCG payments are zero.
	for i, b := range userBids {
		if out.Alloc.UserTotal(i) != b.Demand {
			t.Errorf("user %d allocated %v, want %v", i, out.Alloc.UserTotal(i), b.Demand)
		}
		if auction.UserUtility(b, i, out) < 0 {
			t.Errorf("user %d IR violated", i)
		}
	}
}

// A bidder that equivocates (different bids to different providers) does
// not stall the auction: bid agreement settles its slot to one of the
// submitted values, and all providers still agree.
func TestEquivocatingBidderResolved(t *testing.T) {
	c := newCluster(t, 3, 2, 1, DoubleAuction{})
	provBids := []auction.ProviderBid{pb(1, 5), pb(1.5, 5), pb(2, 5)}

	if err := c.bidders[0].Submit(1, ub(10, 1)); err != nil {
		t.Fatal(err)
	}
	// Bidder 1 equivocates.
	bidA, bidB := ub(8, 1), ub(2, 1)
	if err := c.bidders[1].SubmitRaw(1, map[wire.NodeID][]byte{
		1: bidA.Encode(),
		2: bidB.Encode(),
		3: bidA.Encode(),
	}); err != nil {
		t.Fatal(err)
	}

	outs, errs := c.runRound(t, provBids)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i, err)
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Digest() != outs[0].Digest() {
			t.Fatal("providers disagree after bidder equivocation")
		}
	}
	// The slot resolved to one of the two submissions: the winning user 0
	// pays either 8 or 2 per unit depending on the leader draw — but never
	// anything else.
	pay := outs[0].Pay.ByUser[0]
	if pay != fixed.MustFloat(8) && pay != fixed.MustFloat(2) && pay != 0 {
		t.Errorf("payment %v not explained by either submitted bid", pay)
	}
}

func TestGarbageAndMissingBidsNeutralised(t *testing.T) {
	c := newCluster(t, 3, 3, 1, DoubleAuction{})
	provBids := []auction.ProviderBid{pb(1, 5), pb(1, 5), pb(1, 5)}

	if err := c.bidders[0].Submit(1, ub(10, 1)); err != nil {
		t.Fatal(err)
	}
	// Bidder 1 sends garbage to everyone; bidder 2 sends nothing.
	garbage := map[wire.NodeID][]byte{1: []byte("garbage"), 2: []byte("garbage"), 3: []byte("garbage")}
	if err := c.bidders[1].SubmitRaw(1, garbage); err != nil {
		t.Fatal(err)
	}

	outs, errs := c.runRound(t, provBids)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i, err)
		}
	}
	// Users 1 and 2 are excluded (neutral bids): no allocation, no payment.
	for _, u := range []int{1, 2} {
		if outs[0].Alloc.UserTotal(u) != 0 || outs[0].Pay.ByUser[u] != 0 {
			t.Errorf("user %d should be excluded", u)
		}
	}
}

// A provider that never joins the round (its connection is attached, so
// sends to it succeed, but nobody answers) forces ⊥ rather than a wrong
// outcome: the others run into their round deadline, and the bidders
// observe ⊥.
func TestSilentProviderForcesBot(t *testing.T) {
	c := newCluster(t, 3, 2, 1, DoubleAuction{})
	provBids := []auction.ProviderBid{pb(1, 5), pb(1, 5), pb(1, 5)}
	for i, b := range c.bidders {
		if err := b.Submit(1, ub(float64(10-i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.conns = c.conns[:2] // provider 3 never opens a session
	_, errs := c.runRound(t, provBids, WithRoundTimeout(time.Second))
	for i, err := range errs {
		if err == nil {
			t.Errorf("provider %d succeeded despite silent peer", i)
		}
	}
	for i := range c.bidders {
		if _, err := c.awaitBidder(t, i); !errors.Is(err, ErrOutcomeBot) {
			t.Errorf("bidder %d observed %v, want ⊥", i, err)
		}
	}
}

func TestCentralizedDoubleAuction(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	defer hub.Close()

	cfg := Config{
		Providers: []wire.NodeID{1, 2, 3},
		Users:     []wire.NodeID{100, 101},
		K:         0,
		Mechanism: DoubleAuction{},
		BidWindow: 500 * time.Millisecond,
	}
	aucConn, err := hub.Attach(50)
	if err != nil {
		t.Fatal(err)
	}
	auctioneer, err := NewCentralized(aucConn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer auctioneer.Close()

	// Market providers submit their bids as plain clients.
	provBids := []auction.ProviderBid{pb(1, 5), pb(2, 5), pb(3, 5)}
	for i, id := range cfg.Providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := SubmitProviderBid(conn, 50, 1, provBids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Users submit to the auctioneer alone.
	userBids := []auction.UserBid{ub(10, 1), ub(8, 1)}
	bidders := make([]*BidderSession, 2)
	for i, id := range cfg.Users {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		bidders[i], err = OpenBidderSession(conn, []wire.NodeID{50}, WithRoundLimit(1), WithRoundTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer bidders[i].Close()
		if err := bidders[i].Submit(1, userBids[i]); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := auctioneer.RunRound(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := doubleauction.Solve(auction.BidVector{Users: userBids, Providers: provBids})
	if err != nil {
		t.Fatal(err)
	}
	if out.Digest() != direct.Digest() {
		t.Error("centralized outcome differs from direct solve")
	}
	for i, b := range bidders {
		got := <-b.Outcomes()
		if got.Err != nil {
			t.Fatalf("bidder %d: %v", i, got.Err)
		}
		if got.Outcome.Digest() != out.Digest() {
			t.Errorf("bidder %d outcome mismatch", i)
		}
	}
}

// Providers must agree even when bidders race the bid window so that some
// providers see a bid and others substitute neutral: consensus resolves the
// slot either way.
func TestLateBidderStillConsistent(t *testing.T) {
	c := newCluster(t, 3, 2, 1, DoubleAuction{})
	provBids := []auction.ProviderBid{pb(1, 5), pb(1, 5), pb(1, 5)}

	if err := c.bidders[0].Submit(1, ub(10, 1)); err != nil {
		t.Fatal(err)
	}
	// Bidder 1 submits to provider 1 only — the others will time out and
	// substitute neutral; agreement picks one or the other.
	if err := c.bidders[1].SubmitRaw(1, map[wire.NodeID][]byte{1: ub(9, 1).Encode()}); err != nil {
		t.Fatal(err)
	}

	outs, errs := c.runRound(t, provBids)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i, err)
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Digest() != outs[0].Digest() {
			t.Fatal("providers disagree on a half-submitted bid")
		}
	}
}

// A session closed during bid collection reports one abort code
// everywhere: its RoundOutcome.Err is the round's latched abort, and a
// second provider receives the same code.
func TestCloseDuringBidCollectionCodesAgree(t *testing.T) {
	providers := []wire.NodeID{1, 2}
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	conn1, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := hub.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	other := proto.NewPeer(conn2, providers)
	t.Cleanup(func() { other.Close() })
	s, err := OpenSession(conn1, providers, []wire.NodeID{100},
		WithMechanismName("double"), WithBidWindow(time.Minute), WithRoundLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Provider 1's own bid reaching provider 2 means round 1 is collecting
	// bids (user 100 never submits, so collection outlasts the test).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := other.Receive(ctx, wire.Tag{Round: 1, Block: wire.BlockBidSubmit, Step: 1}, 1); err != nil {
		t.Fatal(err)
	}
	// Read the latch before the session reclaims the round: the round's
	// abort ends a round context with the abort as its cause.
	rctx, stop := s.Peer().RoundContext(context.Background(), 1)
	defer stop(nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	out, ok := <-s.Outcomes()
	if !ok || out.Round != 1 {
		t.Fatalf("no round-1 outcome (got %+v)", out)
	}
	var own, received *proto.AbortError
	select {
	case <-rctx.Done():
		if err := context.Cause(rctx); !errors.As(err, &own) {
			t.Fatalf("latched %v, want an abort", err)
		}
	case <-ctx.Done():
		t.Fatal("round 1 never latched an abort")
	}
	for !errors.As(other.AbortErr(1), &received) {
		if ctx.Err() != nil {
			t.Fatal("provider 2 never received the abort")
		}
		time.Sleep(time.Millisecond)
	}
	if out.Err != error(own) {
		t.Errorf("RoundOutcome.Err %v is not the latched abort %v", out.Err, own)
	}
	if code := proto.AbortCodeOf(out.Err); code != own.Code || code != received.Code || code != proto.AbortClosed {
		t.Errorf("codes: outcome %v, latched %v, received %v; want closed everywhere", code, own.Code, received.Code)
	}
}

var sinkPayload []byte

// TestEncodeResultAllocatesOnce pins a provider's result frame to one buffer
// of exactly its size, on either side of the outcome's length prefix growing
// from one byte to two (127 and 128 bytes), for the Fig. 4-shaped outcome
// frame, and for the 12 392-byte dense outcome that frame replaced.
func TestEncodeResultAllocatesOnce(t *testing.T) {
	fig4 := auction.Outcome{Alloc: auction.NewAllocation(1000, 8), Pay: auction.NewPayments(1000, 8)}
	for u := 0; u < 1000; u++ {
		fig4.Alloc.Set(u, u%8, fixed.One)
		fig4.Pay.ByUser[u] = fixed.MustFloat(1.5)
		fig4.Pay.ToProvider[u%8] += fixed.MustFloat(1.5)
	}
	for _, raw := range [][]byte{make([]byte, 127), make([]byte, 128), fig4.Encode(), make([]byte, 12392)} {
		if allocs := testing.AllocsPerRun(50, func() { sinkPayload = encodeResult(true, raw) }); allocs != 1 {
			t.Errorf("%d-byte outcome: %v allocations, want 1", len(raw), allocs)
		}
		payload := encodeResult(true, raw)
		if len(payload) != cap(payload) {
			t.Errorf("%d-byte outcome: a %d-byte frame in a %d-byte buffer", len(raw), len(payload), cap(payload))
		}
		if ok, back, err := decodeResult(payload); err != nil || !ok || len(back) != len(raw) {
			t.Errorf("%d-byte outcome: decoded (%v, %d bytes, %v)", len(raw), ok, len(back), err)
		}
	}
}
