package distauction_test

import (
	"testing"
	"time"

	"distauction"
	"distauction/internal/transport"
)

// TestTCPResilientTeardownWhileAwaiting closes a TCP + Resilient market
// deployment while a bidder still awaits round 1's outcome: bidder 100 bid
// and left, bidder 101 bid and waits, bidder 102 never bids, so the round
// sits in its bid window. The providers' link ticker is by then redialing
// the departed bidder's closed listener to heartbeat it. Closing the
// network, then the markets and the remaining bidders, must all return in
// under a second.
func TestTCPResilientTeardownWhileAwaiting(t *testing.T) {
	providers := []distauction.NodeID{1, 2, 3}
	users := []distauction.NodeID{100, 101, 102}
	tn := distauction.NewTCPNetwork(distauction.TCPNetworkConfig{
		Members: append(append([]distauction.NodeID(nil), providers...), users...),
		Secret:  []byte("teardown-test"),
	})
	net := transport.Resilient(tn, transport.ResilientConfig{})
	defer net.Close()

	var markets []*distauction.Market
	for _, id := range providers {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := distauction.OpenMarket(conn, providers)
		if err != nil {
			t.Fatal(err)
		}
		markets = append(markets, mk)
		if _, err := mk.OpenAuction(distauction.AuctionSpec{
			Name:  "a",
			Users: users,
			Options: []distauction.Option{
				distauction.WithK(1),
				distauction.WithMechanismName("double"),
				distauction.WithBidWindow(30 * time.Second),
				distauction.WithRoundTimeout(time.Minute),
				distauction.WithRoundLimit(1),
				distauction.WithProviderBid(distauction.ProviderBid{Cost: distauction.Fx(1), Capacity: distauction.Fx(5)}),
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	bidders := map[distauction.NodeID]*distauction.MarketBidder{}
	var awaiting <-chan distauction.RoundOutcome
	for _, id := range users {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := distauction.OpenMarketBidder(conn, providers)
		if err != nil {
			t.Fatal(err)
		}
		bidders[id] = mb
		s, err := mb.Join("a", distauction.WithRoundLimit(1), distauction.WithRoundTimeout(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if id != 102 {
			if err := s.Submit(1, distauction.UserBid{Value: distauction.Fx(2), Demand: distauction.Fx(1)}); err != nil {
				t.Fatal(err)
			}
		}
		if id == 101 {
			awaiting = s.Outcomes()
		}
	}
	// Let the bids reach the providers, then let bidder 100 leave and the
	// providers' heartbeats to it start redialing.
	time.Sleep(200 * time.Millisecond)
	_ = bidders[100].Close()
	delete(bidders, 100)
	time.Sleep(200 * time.Millisecond)
	select {
	case out := <-awaiting:
		t.Fatalf("round %d ended before teardown (err %v): the test proves nothing", out.Round, out.Err)
	default:
	}

	start := time.Now()
	_ = net.Close()
	closed := time.Since(start)
	for _, mk := range markets {
		_ = mk.Close()
	}
	for _, mb := range bidders {
		_ = mb.Close()
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("teardown took %v (network Close %v) with a bidder awaiting an outcome, want < 1s", took, closed)
	}
}
