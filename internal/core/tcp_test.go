package core

import (
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/auth"
	"distauction/internal/fixed"
	"distauction/internal/mechanism/doubleauction"
	"distauction/internal/mechanism/standardauction"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// TestFullProtocolOverTCP runs a complete distributed double auction over
// real authenticated TCP connections on loopback — the same configuration
// cmd/gatewayd and cmd/bidclient deploy, exercised as a test.
func TestFullProtocolOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real TCP listeners")
	}
	master := []byte("integration-master")
	providerIDs := []wire.NodeID{1, 2, 3}
	userIDs := []wire.NodeID{100, 101}
	all := append(append([]wire.NodeID{}, providerIDs...), userIDs...)

	// Start every node on an ephemeral port, then teach everyone the
	// resulting addresses.
	nodes := make(map[wire.NodeID]*transport.TCPNode, len(all))
	for _, id := range all {
		node, err := transport.ListenTCP(transport.TCPConfig{
			Self:       id,
			ListenAddr: "127.0.0.1:0",
			Peers:      map[wire.NodeID]string{},
			Registry:   auth.NewRegistryFromMaster(master, id, all),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[id] = node
	}
	for _, from := range all {
		for _, to := range all {
			if from != to {
				nodes[from].SetPeer(to, nodes[to].Addr())
			}
		}
	}

	bidders := make([]*BidderSession, 0, len(userIDs))
	for _, id := range userIDs {
		b, err := OpenBidderSession(nodes[id], providerIDs, WithRoundLimit(1), WithRoundTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		bidders = append(bidders, b)
	}

	userBids := []auction.UserBid{
		{Value: fixed.MustFloat(9), Demand: fixed.One},
		{Value: fixed.MustFloat(7), Demand: fixed.One},
	}
	provBids := []auction.ProviderBid{
		{Cost: fixed.One, Capacity: fixed.MustFloat(10)},
		{Cost: fixed.MustFloat(2), Capacity: fixed.MustFloat(10)},
		{Cost: fixed.MustFloat(3), Capacity: fixed.MustFloat(10)},
	}
	sessions := make([]*Session, 0, len(providerIDs))
	for i, id := range providerIDs {
		s, err := OpenSession(nodes[id], providerIDs, userIDs,
			WithK(1),
			WithMechanism(DoubleAuction{}),
			WithBidWindow(3*time.Second),
			WithProviderBid(provBids[i]),
			WithRoundLimit(1),
			WithRoundTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		sessions = append(sessions, s)
	}
	for i, b := range bidders {
		if err := b.Submit(1, userBids[i]); err != nil {
			t.Fatal(err)
		}
	}

	outs := make([]auction.Outcome, len(sessions))
	for i, s := range sessions {
		out := <-s.Outcomes()
		if out.Err != nil {
			t.Fatalf("provider %d: %v", i+1, out.Err)
		}
		outs[i] = out.Outcome
	}
	bidderOut := <-bidders[0].Outcomes()
	if bidderOut.Err != nil {
		t.Fatalf("bidder outcome: %v", bidderOut.Err)
	}
	got := bidderOut.Outcome
	for i := 1; i < len(outs); i++ {
		if outs[i].Digest() != outs[0].Digest() {
			t.Fatal("providers disagree over TCP")
		}
	}
	if got.Digest() != outs[0].Digest() {
		t.Error("bidder outcome differs")
	}

	// Correct simulation over the real network too.
	direct, err := doubleauction.Solve(auction.BidVector{Users: userBids, Providers: provBids})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Digest() != direct.Digest() {
		t.Error("TCP distributed outcome differs from direct execution of A")
	}
	// McAfee trade reduction on this instance: user 100 (value 9) wins and
	// pays the excluded user's value 7.
	if outs[0].Pay.ByUser[0] != fixed.MustFloat(7) {
		t.Errorf("winner pays %v, want 7", outs[0].Pay.ByUser[0])
	}
}

// TestReplicatedStandardAuction checks the ablation path: the replicated
// standard auction produces a unanimous, feasible outcome just like the
// parallel decomposition.
func TestReplicatedStandardAuction(t *testing.T) {
	caps := []fixed.Fixed{fixed.MustInt(2), fixed.MustInt(2), fixed.MustInt(2)}
	mech := StandardAuction{
		Params:     standardParamsFor(caps),
		Replicated: true,
	}
	c := newCluster(t, 3, 4, 1, mech)
	for i, b := range c.bidders {
		if err := b.Submit(1, ub(float64(9-i), 1)); err != nil {
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
			t.Fatal("replicated providers disagree")
		}
	}
	if err := outs[0].Alloc.CheckFeasible(caps); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func standardParamsFor(caps []fixed.Fixed) standardauction.Params {
	return standardauction.Params{Capacities: caps, InvEpsilon: 4}
}
