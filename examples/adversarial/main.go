// Adversarial behaviour and why it does not pay — the game-theoretic core
// of the paper, demonstrated live.
//
// Three scenarios on the same 3-provider double auction:
//
//  1. Honest round: all providers follow the protocol → outcome accepted.
//
//  2. Equivocating bidder: a user sends different bids to different
//     providers. Bid agreement resolves the slot to one of the submitted
//     values (a uniformly random leader's view), so the auction proceeds
//     and all providers still agree — lying bought the bidder nothing
//     predictable.
//
//  3. Lying provider: provider 3 reports a corrupted result digest.
//     Cross-validation catches it, the round ends in ⊥, nothing is paid:
//     the deviation earned the provider exactly zero, which is why
//     following the protocol is an equilibrium.
//
//     go run ./examples/adversarial
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"distauction"
	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/deviation"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

var (
	userBids = []auction.UserBid{
		{Value: distauction.Fx(10), Demand: distauction.Fx(1)},
		{Value: distauction.Fx(8), Demand: distauction.Fx(1)},
	}
	provBids = []auction.ProviderBid{
		{Cost: distauction.Fx(1), Capacity: distauction.Fx(5)},
		{Cost: distauction.Fx(2), Capacity: distauction.Fx(5)},
		{Cost: distauction.Fx(3), Capacity: distauction.Fx(5)},
	}
)

func main() {
	fmt.Println("scenario 1: everyone honest")
	runScenario(nil, false)

	fmt.Println("\nscenario 2: bidder 101 equivocates (bids 8 to two providers, 2 to the third)")
	runScenario(nil, true)

	fmt.Println("\nscenario 3: provider 3 lies about its computed result")
	runScenario([]deviation.Rule{{
		Match:     deviation.MatchBlock(wire.BlockTask),
		Action:    deviation.Mutate,
		Transform: deviation.FlipPayloadByte(),
	}}, false)
}

func runScenario(rules []deviation.Rule, equivocate bool) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	defer hub.Close()

	providers := []wire.NodeID{1, 2, 3}
	users := []wire.NodeID{100, 101}
	// One scripted round: every session runs round 1 and ends.
	oneRound := []core.SessionOption{core.WithRoundLimit(1), core.WithRoundTimeout(10 * time.Second)}

	for i, id := range providers {
		conn, err := hub.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		var tc transport.Conn = conn
		if id == 3 && rules != nil {
			tc = deviation.Wrap(conn, rules...)
		}
		s, err := core.OpenSession(tc, providers, users, append(oneRound,
			core.WithK(1),
			core.WithMechanism(core.DoubleAuction{}),
			core.WithBidWindow(time.Second),
			core.WithProviderBid(provBids[i]))...)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
	}
	var bidders []*core.BidderSession
	for _, id := range users {
		conn, err := hub.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		b, err := core.OpenBidderSession(conn, providers, oneRound...)
		if err != nil {
			log.Fatal(err)
		}
		defer b.Close()
		bidders = append(bidders, b)
	}

	// Submissions.
	if err := bidders[0].Submit(1, userBids[0]); err != nil {
		log.Fatal(err)
	}
	if equivocate {
		honest := userBids[1].Encode()
		lie := auction.UserBid{Value: distauction.Fx(2), Demand: distauction.Fx(1)}.Encode()
		if err := bidders[1].SubmitRaw(1, map[wire.NodeID][]byte{
			1: honest, 2: honest, 3: lie,
		}); err != nil {
			log.Fatal(err)
		}
	} else {
		if err := bidders[1].Submit(1, userBids[1]); err != nil {
			log.Fatal(err)
		}
	}

	// The bidder's view is the global outcome: accepted only if every
	// provider reported the same pair.
	result := <-bidders[0].Outcomes()
	outcome, err := result.Outcome, result.Err

	switch {
	case errors.Is(err, core.ErrOutcomeBot):
		fmt.Println("  outcome: ⊥ — the deviation was detected; nobody is allocated, nobody pays,")
		fmt.Println("  every participant's utility is 0. The deviant gained nothing.")
	case err != nil:
		fmt.Printf("  unexpected: %v\n", err)
	default:
		fmt.Println("  outcome accepted unanimously:")
		for u, id := range users {
			fmt.Printf("    user %d: allocated %v, pays %v\n",
				id, outcome.Alloc.UserTotal(u), outcome.Pay.ByUser[u])
		}
		if equivocate {
			fmt.Println("  (the equivocated slot resolved to ONE of the submitted bids — a")
			fmt.Println("   uniformly random provider's view — so all providers still agree)")
		}
	}
}
