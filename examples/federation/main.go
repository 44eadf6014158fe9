// A sharded marketplace federation: many provider committees, one market.
//
// One committee can only push so many auctions — every provider carries
// every session. Here the catalog is partitioned over two provider
// committees ("metro-east" and "metro-west" shards) behind a single
// federated façade: placement is deterministic (pins or rendezvous
// hashing, predictable by any participant), each household keeps ONE
// network attachment and bids on auctions of both shards through it, and
// the two shards settle into one shared credit ledger atomically — a
// cross-shard round either commits on every shard or releases every
// reservation.
//
// The households are funded for only part of the schedule, so the run
// shows both halves of two-phase settlement: early rounds commit on both
// shards; once a balance can no longer cover both legs, the settler
// reserves on one shard, fails on the other, and releases the first —
// no round ever half-settles.
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"distauction"
)

const escrow = distauction.NodeID(999)

func main() {
	hub := distauction.NewHub(distauction.CommunityNetModel(), 11)
	defer hub.Close()

	// Two disjoint 3-provider committees; one shared settlement ledger.
	shards := []distauction.ShardSpec{
		{Index: 1, Providers: []distauction.NodeID{1, 2, 3}}, // metro-east
		{Index: 2, Providers: []distauction.NodeID{4, 5, 6}}, // metro-west
	}
	households := []distauction.NodeID{101, 102, 103}
	const rounds = 6

	ledger := distauction.NewLedger()
	ledger.Open(escrow)
	gateways := map[int][]*distauction.Gateway{}
	for _, sh := range shards {
		for _, id := range sh.Providers {
			ledger.Open(id)
			gateways[sh.Index] = append(gateways[sh.Index], distauction.NewGateway(id, distauction.Fx(50)))
		}
	}
	// Funded for roughly half the schedule: commits first, then aborts.
	for _, id := range households {
		ledger.Open(id)
		if err := ledger.Deposit(id, distauction.Fx(12)); err != nil {
			log.Fatal(err)
		}
	}
	supply0 := ledger.TotalSupply()

	// One federated market over the whole fleet. The outcome callback fires
	// once per round of every auction, after cross-shard settlement.
	type key struct {
		name  string
		round uint64
	}
	var outMu sync.Mutex
	accepted := map[key]bool{}
	fed, err := distauction.OpenFederation(hub, shards,
		distauction.WithFederationOnOutcome(func(name string, shard int, out distauction.RoundOutcome) {
			outMu.Lock()
			accepted[key{name, out.Round}] = out.Err == nil
			outMu.Unlock()
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()

	// Placement is deterministic: any participant can predict a name's
	// shard from the shard set alone.
	for _, name := range []string{"compute", "bandwidth", "storage"} {
		fmt.Printf("router: %-9s → shard %d (local lane %d)\n",
			name, distauction.PlaceShardForName(name, []int{1, 2}), distauction.ShardLaneForName(name))
	}

	// The two markets are pinned one per shard and share settle group
	// "metro": their rounds settle together or not at all.
	auctions := []struct {
		name  string
		shard int
		cost  float64
	}{
		{"compute", 1, 0.40},
		{"bandwidth", 2, 0.25},
	}
	for _, a := range auctions {
		a := a
		err := fed.OpenAuction(distauction.FederatedAuctionSpec{
			Name:  a.name,
			Shard: a.shard,
			Users: households,
			Options: []distauction.Option{
				distauction.WithK(1),
				distauction.WithMechanismName("double"),
				distauction.WithBidWindow(10 * time.Second),
				distauction.WithRoundTimeout(time.Minute),
				distauction.WithRoundLimit(rounds),
				distauction.WithOutcomeBuffer(rounds),
			},
			MemberOptions: func(i int, _ distauction.NodeID) []distauction.Option {
				return []distauction.Option{distauction.WithProviderBid(distauction.ProviderBid{
					Cost:     distauction.Fx(a.cost * float64(i+1)),
					Capacity: distauction.Fx(10),
				})}
			},
			Enforce: &distauction.EnforceTarget{
				Ledger:   ledger,
				Gateways: gateways[a.shard],
				Escrow:   escrow,
				TTL:      time.Hour,
			},
			SettleGroup: "metro",
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Households bid on both shards' auctions through ONE attachment each.
	var wg sync.WaitGroup
	for hi, id := range households {
		conn, err := hub.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		fb, err := distauction.OpenFederationBidder(conn, shards)
		if err != nil {
			log.Fatal(err)
		}
		defer fb.Close()
		for _, a := range auctions {
			s, err := fb.Join(a.name,
				distauction.WithRoundLimit(rounds),
				distauction.WithRoundTimeout(time.Minute))
			if err != nil {
				log.Fatal(err)
			}
			for r := uint64(1); r <= rounds; r++ {
				bid := distauction.UserBid{
					Value:  distauction.Fx(2.0 + 0.2*float64(hi) + 0.1*float64(r)),
					Demand: distauction.Fx(1),
				}
				if err := s.Submit(r, bid); err != nil {
					log.Fatal(err)
				}
			}
			wg.Add(1)
			go func(s *distauction.BidderSession) {
				defer wg.Done()
				for range s.Outcomes() {
				}
			}(s)
		}
	}
	wg.Wait()

	// Let every committee's consumers finish settling, then report.
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		snap := fed.Stats()
		if snap.SettleCommits+snap.SettleAborts >= rounds {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap := fed.Stats()
	fmt.Println()
	for _, ss := range snap.PerShard {
		health := "ok"
		if !ss.Healthy() {
			health = "DEGRADED"
		}
		fmt.Printf("shard %d: committee %v, %d auctions, %d rounds (%d accepted), %.1f r/s, saturation %.2f, %s\n",
			ss.Shard, ss.Committee, len(ss.Auctions), ss.Rounds, ss.Accepted, ss.RoundsPerSec, ss.Saturation(), health)
	}
	fmt.Printf("cross-shard settlement: %d rounds committed on both shards, %d aborted and released\n",
		snap.SettleCommits, snap.SettleAborts)

	live := 0
	for _, gws := range gateways {
		for _, g := range gws {
			live += g.Live()
		}
	}
	fmt.Printf("ledger: supply %v (deposited %v), escrow retains %v surplus, %d live reservations\n",
		ledger.TotalSupply(), supply0, ledger.Balance(escrow), live)
	if ledger.TotalSupply() != supply0 {
		log.Fatal("supply not conserved")
	}
	fmt.Println("atomicity held: every round settled on both shards or on neither")
}
