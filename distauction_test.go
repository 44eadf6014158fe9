package distauction_test

import (
	"testing"
	"time"

	"distauction"
)

// The facade test exercises a full distributed auction round through the
// public API only — what a downstream user's first program looks like.
func TestPublicAPIDoubleAuctionRound(t *testing.T) {
	hub := distauction.NewHub(distauction.LatencyModel{}, 1)
	defer hub.Close()

	top := distauction.Topology{
		Providers: []distauction.NodeID{1, 2, 3},
		Users:     []distauction.NodeID{100, 101},
	}
	userBids := []distauction.UserBid{
		{Value: distauction.Fx(10), Demand: distauction.Fx(1)},
		{Value: distauction.Fx(8), Demand: distauction.Fx(1)},
	}
	provBids := []distauction.ProviderBid{
		{Cost: distauction.Fx(1), Capacity: distauction.Fx(5)},
		{Cost: distauction.Fx(2), Capacity: distauction.Fx(5)},
		{Cost: distauction.Fx(3), Capacity: distauction.Fx(5)},
	}

	// One round: every session runs round 1 and its stream ends.
	sessions := make([]*distauction.Session, 0, 3)
	for i, id := range top.Providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := distauction.Open(conn, top,
			distauction.WithK(1),
			distauction.WithMechanism(distauction.NewDoubleAuction()),
			distauction.WithBidWindow(2*time.Second),
			distauction.WithProviderBid(provBids[i]),
			distauction.WithRoundLimit(1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions = append(sessions, s)
	}
	bidders := make([]*distauction.BidderSession, 0, 2)
	for i, id := range top.Users {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := distauction.OpenBidder(conn, top.Providers, distauction.WithRoundLimit(1))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if err := b.Submit(1, userBids[i]); err != nil {
			t.Fatal(err)
		}
		bidders = append(bidders, b)
	}

	outs := make([]distauction.Outcome, len(sessions))
	for i, s := range sessions {
		out := <-s.Outcomes()
		if out.Err != nil {
			t.Fatalf("provider %d: %v", i+1, out.Err)
		}
		outs[i] = out.Outcome
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Digest() != outs[0].Digest() {
			t.Fatal("providers disagree")
		}
	}
	// Bidders learn the outcome too.
	got := <-bidders[0].Outcomes()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Outcome.Digest() != outs[0].Digest() {
		t.Error("bidder outcome differs from providers'")
	}

	// Settle through the public ledger/enforcer types.
	l := distauction.NewLedger()
	escrow := distauction.NodeID(999)
	for _, id := range append(append([]distauction.NodeID{escrow}, top.Users...), top.Providers...) {
		l.Open(id)
	}
	for _, id := range top.Users {
		if err := l.Deposit(id, distauction.Fx(100)); err != nil {
			t.Fatal(err)
		}
	}
	gws := []*distauction.Gateway{
		distauction.NewGateway(1, distauction.Fx(5)),
		distauction.NewGateway(2, distauction.Fx(5)),
		distauction.NewGateway(3, distauction.Fx(5)),
	}
	enf := &distauction.Enforcer{Ledger: l, Gateways: gws, Escrow: escrow, TTL: time.Hour}
	if err := enf.Enforce(1, outs[0], top.Users, top.Providers); err != nil {
		t.Fatalf("enforce: %v", err)
	}
	// The winner (user 100, value 10) pays the marginal price 8.
	if got := l.Balance(100); got != distauction.Fx(92) {
		t.Errorf("winner balance = %v, want 92", got)
	}
}

func TestParseFixed(t *testing.T) {
	v, err := distauction.ParseFixed("1.25")
	if err != nil || v != distauction.Fx(1.25) {
		t.Errorf("ParseFixed = %v, %v", v, err)
	}
	if _, err := distauction.ParseFixed("not a number"); err == nil {
		t.Error("garbage accepted")
	}
}
