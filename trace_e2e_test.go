package distauction_test

import (
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/market"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// fx builds a fixed-point value for test bids.
func fx(v float64) fixed.Fixed { return fixed.MustFloat(v) }

// TestTraceAbortAttribution drives a full market deployment with tracing on,
// injects one equivocation ⊥ at a known provider, and asserts the whole
// export chain observes it: the market's Stats() count the abort under the
// equivocation code, and the flight recorder produces a dump attributing
// the abort to the deviant peer and the phase it surfaced in.
func TestTraceAbortAttribution(t *testing.T) {
	trace.Reset()
	trace.SetEnabled(true)
	defer trace.Reset()

	const (
		rounds   = 12
		poisoned = 6
		lane     = uint32(7)
		name     = "traced-auction"
	)
	culprit := wire.NodeID(2)

	hub := transport.NewHub(transport.LatencyModel{}, 1)
	defer hub.Close()
	providers := []wire.NodeID{1, 2, 3}
	users := []wire.NodeID{100, 101}
	provBids := []auction.ProviderBid{
		{Cost: fx(1), Capacity: fx(5)},
		{Cost: fx(2), Capacity: fx(5)},
		{Cost: fx(3), Capacity: fx(5)},
	}

	markets := make([]*market.Market, len(providers))
	for i, id := range providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := market.Open(conn, providers, market.WithAdmissionWindow(rounds+8))
		if err != nil {
			t.Fatal(err)
		}
		defer mk.Close()
		markets[i] = mk
		_, err = mk.OpenAuction(market.AuctionSpec{
			Name:  name,
			Lane:  lane,
			Users: users,
			Options: []core.SessionOption{
				core.WithK(1),
				core.WithMechanismName("double"),
				core.WithBidWindow(2 * time.Second),
				core.WithRoundLimit(rounds),
				core.WithMaxConcurrentRounds(4),
				core.WithProviderBid(provBids[i]),
				core.WithOutcomeBuffer(rounds),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Poison one future round at the culprit's own market: its abort travels
	// with the equivocation code and the deviant's identity, so every
	// provider attributes the ⊥ identically.
	a, ok := markets[1].Auction(name)
	if !ok {
		t.Fatal("auction missing on market 1")
	}
	a.Session().Peer().Fail(poisoned, "test",
		&proto.AbortError{Code: proto.AbortEquivocation, Culprit: culprit, Reason: "injected equivocation"})

	for _, id := range users {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := market.NewBidder(conn, providers)
		if err != nil {
			t.Fatal(err)
		}
		defer mb.Close()
		s, err := mb.JoinLane(name, lane,
			core.WithRoundLimit(rounds),
			core.WithOutcomeBuffer(rounds),
			core.WithRoundTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		for r := uint64(1); r <= rounds; r++ {
			bid := auction.UserBid{Value: fx(4), Demand: fx(1)}
			if err := s.Submit(r, bid); err != nil {
				t.Fatal(err)
			}
		}
		go func() {
			for range s.Outcomes() {
			}
		}()
	}

	// Wait until every market consumed all rounds.
	deadline := time.Now().Add(time.Minute)
	for _, mk := range markets {
		for mk.Stats().Rounds < rounds {
			if time.Now().After(deadline) {
				t.Fatalf("timed out: market saw %d of %d rounds", mk.Stats().Rounds, rounds)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Typed abort counters: exactly one ⊥ round, classified as equivocation.
	for i, mk := range markets {
		snap := mk.Stats()
		if snap.Aborted != 1 {
			t.Errorf("market %d: %d aborted rounds, want 1", i, snap.Aborted)
		}
		if got := snap.AbortCodes[proto.AbortEquivocation]; got != 1 {
			t.Errorf("market %d: equivocation count = %d, want 1 (all codes: %v)",
				i, got, snap.AbortCodes)
		}
		if snap.Latency.Count < rounds {
			t.Errorf("market %d: latency histogram has %d samples, want >= %d",
				i, snap.Latency.Count, rounds)
		}
	}

	// Flight recorder: the ⊥ round produced a dump naming the culprit, the
	// equivocation code, and the phase context of the abort.
	var found bool
	for _, d := range trace.Dumps() {
		if d.Round != poisoned || !d.Aborted {
			continue
		}
		found = true
		if d.Culprit != culprit {
			t.Errorf("dump culprit = %d, want %d", d.Culprit, culprit)
		}
		if d.Code != int32(proto.AbortEquivocation) {
			t.Errorf("dump code = %d, want %d (equivocation)", d.Code, proto.AbortEquivocation)
		}
		if len(d.Events) == 0 {
			t.Error("dump carries no events")
		}
		break
	}
	if !found {
		t.Fatalf("no flight dump for aborted round %d (dumps: %d)", poisoned, len(trace.Dumps()))
	}
}
