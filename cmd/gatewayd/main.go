// Command gatewayd runs one provider node of the distributed auctioneer
// over real TCP — the daemon a community-network gateway operator would run.
//
// Every provider needs the same deployment facts: the provider set with
// addresses, the user set, k, and the mechanism (selected by registry
// name). Addresses are given as comma-separated id=host:port pairs. All
// nodes derive pairwise HMAC keys from the shared master secret.
//
// The daemon opens a long-running auction session: rounds run continuously
// and pipelined, with per-round results streamed to stdout, until the round
// limit (if any) is reached or the process is stopped.
//
//	gatewayd -id 1 -listen :7001 \
//	  -providers '1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003' \
//	  -users '100,101' -k 1 -mechanism double \
//	  -cost 1.5 -capacity 10 -rounds 1 -secret communitynet
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distauction/internal/auction"
	"distauction/internal/cliutil"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/wire"
)

func main() {
	id := flag.Uint("id", 0, "this provider's node id")
	listen := flag.String("listen", ":0", "listen address")
	providersFlag := flag.String("providers", "", "provider set: id=host:port, comma separated")
	usersFlag := flag.String("users", "", "user bidder ids, comma separated")
	userAddrsFlag := flag.String("user-addrs", "", "optional user addresses for outcome delivery: id=host:port, comma separated")
	k := flag.Int("k", 1, "coalition bound")
	mechanism := flag.String("mechanism", "double", fmt.Sprintf("mechanism name: %v", core.MechanismNames()))
	cost := flag.String("cost", "1", "own unit cost (double auction)")
	capacity := flag.String("capacity", "10", "own capacity (double auction)")
	capsFlag := flag.String("capacities", "", "standard auction: capacities per provider, comma separated")
	rounds := flag.Uint64("rounds", 1, "number of auction rounds to run (0 = until interrupted)")
	pipeline := flag.Int("pipeline", 2, "rounds in flight (bid collection of round r+1 overlaps round r's allocation)")
	bidWindow := flag.Duration("bid-window", 5*time.Second, "bid collection window")
	roundTimeout := flag.Duration("round-timeout", 2*time.Minute, "per-round deadline")
	secret := flag.String("secret", "", "shared master secret for HMAC keys (empty = unauthenticated)")
	flag.Parse()

	if err := run(uint32(*id), *listen, *providersFlag, *usersFlag, *userAddrsFlag, *k, *mechanism,
		*cost, *capacity, *capsFlag, *rounds, *pipeline, *bidWindow, *roundTimeout, *secret); err != nil {
		fmt.Fprintln(os.Stderr, "gatewayd:", err)
		os.Exit(1)
	}
}

func run(id uint32, listen, providersFlag, usersFlag, userAddrsFlag string, k int, mechanism,
	cost, capacity, capsFlag string, rounds uint64, pipeline int,
	bidWindow, roundTimeout time.Duration, secret string) error {

	peerAddrs, providerIDs, err := cliutil.ParseAddrMap(providersFlag)
	if err != nil {
		return fmt.Errorf("providers: %w", err)
	}
	if userAddrsFlag != "" {
		userAddrs, _, err := cliutil.ParseAddrMap(userAddrsFlag)
		if err != nil {
			return fmt.Errorf("user-addrs: %w", err)
		}
		for uid, addr := range userAddrs {
			peerAddrs[uid] = addr
		}
	}
	userIDs, err := cliutil.ParseIDList(usersFlag)
	if err != nil {
		return fmt.Errorf("users: %w", err)
	}
	for _, uid := range userIDs {
		if _, ok := peerAddrs[uid]; !ok {
			fmt.Fprintf(os.Stderr,
				"gatewayd: warning: no address for user %d (see -user-addrs); outcomes cannot be delivered to it\n", uid)
		}
	}

	// Mechanisms are selected by registry name; anything registered via
	// core.RegisterMechanism works here without touching this CLI.
	var spec core.MechanismSpec
	if capsFlag != "" {
		caps, err := cliutil.ParseFixedList(capsFlag)
		if err != nil {
			return fmt.Errorf("capacities: %w", err)
		}
		if len(caps) != len(providerIDs) {
			return fmt.Errorf("need one capacity per provider (%d given, %d providers)",
				len(caps), len(providerIDs))
		}
		spec.Capacities = caps
	}
	mech, err := core.NewMechanism(mechanism, spec)
	if err != nil {
		return err
	}

	// The TCP address book doubles as the Network: this process attaches
	// only its own node; peers are dialed lazily.
	self := wire.NodeID(id)
	network, conn, err := cliutil.DialTCP(self, listen, peerAddrs,
		append(append([]wire.NodeID{}, providerIDs...), userIDs...), secret)
	if err != nil {
		return err
	}
	defer network.Close()

	opts := []core.SessionOption{
		core.WithK(k),
		core.WithMechanism(mech),
		core.WithBidWindow(bidWindow),
		core.WithRoundTimeout(roundTimeout),
		core.WithRoundLimit(rounds),
		core.WithMaxConcurrentRounds(pipeline),
	}
	if mech.DoubleSided() {
		c, err := fixed.Parse(cost)
		if err != nil {
			return fmt.Errorf("cost: %w", err)
		}
		cap_, err := fixed.Parse(capacity)
		if err != nil {
			return fmt.Errorf("capacity: %w", err)
		}
		opts = append(opts, core.WithProviderBid(auction.ProviderBid{Cost: c, Capacity: cap_}))
	}

	session, err := core.OpenSession(conn, providerIDs, userIDs, opts...)
	if err != nil {
		return err
	}
	defer session.Close()
	fmt.Printf("gatewayd: provider %d in session (%s auction, m=%d, k=%d, pipeline %d)\n",
		id, mechanism, len(providerIDs), k, pipeline)

	// On SIGINT/SIGTERM, close the session instead of dying abruptly: the
	// abort is broadcast, so peers and bidders learn ⊥ for the rounds in
	// flight rather than waiting out their round timeouts.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Printf("gatewayd: %v: closing session\n", s)
		session.Close()
	}()

	for out := range session.Outcomes() {
		if out.Err == nil {
			fmt.Printf("round %d: outcome accepted — %d users, paid=%v received=%v\n",
				out.Round, out.Outcome.Alloc.NumUsers,
				out.Outcome.Pay.TotalPaid(), out.Outcome.Pay.TotalReceived())
		} else {
			fmt.Printf("round %d: ⊥ (aborted): %v\n", out.Round, out.Err)
		}
	}
	return nil
}
