package harness

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/market"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// ChaosConfig is the fault schedule of one chaos soak: a full marketplace
// run over the resilience stack — session traffic over Resilient(Hub) —
// with frame drops and periodic connection kills injected by the Hub,
// underneath the ARQ layer. The market itself is shaped by the usual
// harness options.
type ChaosConfig struct {
	// Drop is the per-frame drop probability on every link (e.g. 0.01).
	Drop float64
	// KillEvery kills one node's connections (Hub.Kill: a 30 ms blackout)
	// every KillEvery completed rounds, rotating the victim across all
	// nodes (0 = no kills).
	KillEvery int
}

// ChaosResult reports what the soak survived. The correctness assertions —
// outcome agreement between bidders and the primary, cross-provider
// ledger-journal equality and replay equality against a serial
// re-settlement of the observed outcomes — run inside RunMarketChaos and
// fail the run; the counters here are for reporting and for the
// zero-transport-aborts assertion the caller owns.
type ChaosResult struct {
	// Counters and Attachment are the first provider's market after the
	// run. AbortCodes breaks any ⊥ rounds down by cause — a resilience
	// regression shows up as nonzero disconnect/timeout counts — and Link is
	// what the ARQ layer did to mask what the injector did (Faults).
	market.Counters
	market.Attachment
	Faults   transport.FaultStats
	Duration time.Duration
}

// chaosLink is the link config for soaks: fast heartbeats so acks and
// failure detection keep up with millisecond rounds.
func chaosLink() transport.ResilientConfig {
	return transport.ResilientConfig{
		HeartbeatEvery: 5 * time.Millisecond,
		ResendAfter:    15 * time.Millisecond,
		SuspectAfter:   8,
		DeadAfter:      40,
	}
}

// RunMarketChaos runs a one-shard marketplace of `auctions` double auctions
// × `rounds` rounds under injected transport faults and proves the outcome
// stream unharmed: every provider settles every auction into its own
// private ledger, and the run fails unless (1) all committee members'
// journals are identical per auction and (2) the first provider's journal
// equals a serial replay of the outcomes it observed, re-settled through a
// fresh gateway.Enforcer. Abort counts are returned, not asserted — the
// caller decides how many (typically zero) it tolerates.
//
// federation.AuctionSpec.Enforce fires on the shard primary only, so the
// per-member ledgers are why this deployment opens its member markets
// itself; the workload, the bidders, the driver and its oracle are the
// shared ones.
func RunMarketChaos(auctions, rounds int, chaos ChaosConfig, opts ...Option) (ChaosResult, error) {
	if auctions < 1 || rounds < 1 {
		return ChaosResult{}, errShape
	}
	cfg := newConfig(opts)
	hub := transport.NewHub(cfg.latency, int64(cfg.seed))
	hub.SetFaults(transport.Faults{Drop: chaos.Drop})
	net := transport.Resilient(hub, chaosLink())
	defer net.Close()

	m := cfg.m
	providerIDs, userIDs := ids(m, cfg.n)
	const escrow wire.NodeID = 999

	// Every committee member settles every auction into its own private
	// ledger + gateway set, all identically funded: after the run the
	// journals must agree entry-for-entry, or resilience lost or reordered
	// an outcome somewhere.
	newEnforcer := func() *gateway.Enforcer {
		led := ledger.New()
		led.Open(escrow)
		for _, id := range userIDs {
			led.Open(id)
			if err := led.Deposit(id, fixed.MustFloat(1e7)); err != nil {
				panic(err) // fresh ledger, cannot overflow
			}
		}
		gws := make([]*gateway.Gateway, m)
		for p, id := range providerIDs {
			led.Open(id)
			gws[p] = gateway.New(id, fixed.MustFloat(1e9), nil)
		}
		return &gateway.Enforcer{Ledger: led, Gateways: gws, Escrow: escrow, TTL: time.Hour}
	}

	// The kill schedule rides the first provider's outcome stream: every
	// KillEvery completed rounds, the next victim's connections die.
	victims := append(append([]wire.NodeID{}, providerIDs...), userIDs...)
	var primary observer
	var completed atomic.Int64
	onOutcome := func(name string, out core.RoundOutcome) {
		primary.record(name, out)
		if c := int(completed.Add(1)); chaos.KillEvery > 0 && c%chaos.KillEvery == 0 {
			hub.Kill(victims[(c/chaos.KillEvery-1)%len(victims)])
		}
	}

	lanes := make([]lane, auctions)
	asks := make([][]auction.ProviderBid, auctions)
	for j := range lanes {
		lanes[j] = lane{name: fmt.Sprintf("chaos-%03d", j), shard: 1, local: uint32(j + 1)}
		asks[j], lanes[j].bids = cfg.doubleBids(j, rounds)
	}
	ledgers := make([][]*ledger.Ledger, m) // [provider][auction]
	markets := make([]*market.Market, m)
	for i, id := range providerIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return ChaosResult{}, err
		}
		mopts := []market.Option{market.WithAdmissionWindow(cfg.admissionWindow(rounds)), market.WithSweepEvery(0)}
		if i == 0 {
			mopts = append(mopts, market.WithOnOutcome(onOutcome))
		}
		mk, err := market.Open(conn, providerIDs, mopts...)
		if err != nil {
			return ChaosResult{}, err
		}
		defer mk.Close()
		markets[i] = mk
		ledgers[i] = make([]*ledger.Ledger, auctions)
		for j, l := range lanes {
			enf := newEnforcer()
			ledgers[i][j] = enf.Ledger
			_, err := mk.OpenAuction(market.AuctionSpec{
				Name:  l.name,
				Lane:  l.local,
				Users: userIDs,
				Options: append(cfg.providerOptions(rounds),
					core.WithMechanismName("double"), core.WithProviderBid(asks[j][i])),
				Enforce: &market.EnforceTarget{Ledger: enf.Ledger, Gateways: enf.Gateways, Escrow: escrow, TTL: enf.TTL},
			})
			if err != nil {
				return ChaosResult{}, err
			}
		}
	}
	bidders, err := joinLanes(cfg, net, committees(1, m), lanes, rounds)
	for _, fb := range bidders {
		defer fb.Close()
	}
	if err != nil {
		return ChaosResult{}, err
	}

	// Every committee member must finish consuming (and settling) every
	// round before the journals are comparable.
	run, err := drive(lanes, rounds, cfg.pipeline+1, func() ([][][]core.RoundOutcome, error) {
		err := waitConsumed(cfg.timeout, int64(auctions*rounds*m), func() (consumed int64) {
			for _, mk := range markets {
				consumed += mk.Stats().Rounds
			}
			return consumed
		})
		return primary.streams(lanes), err
	})
	if err != nil {
		return ChaosResult{}, err
	}

	first := markets[0].Stats()
	res := ChaosResult{Counters: first.Counters, Attachment: first.Attachment, Duration: run.elapsed, Faults: hub.FaultStats()}
	for j, l := range lanes {
		// (1) Cross-provider journal equality, per auction.
		live := ledgers[0][j].Journal()
		for i := 1; i < m; i++ {
			if got := ledgers[i][j].Journal(); !reflect.DeepEqual(got, live) {
				return ChaosResult{}, fmt.Errorf("harness: %s: provider %d journal diverges from provider 1 (%d vs %d entries)",
					l.name, providerIDs[i], len(got), len(live))
			}
		}
		// (2) Replay equality: re-settle the observed outcome stream
		// serially through a fresh Enforcer; the journal must reproduce
		// exactly.
		replayer := newEnforcer()
		for _, out := range run.providers[j][0] {
			if out.Err != nil {
				continue
			}
			if err := replayer.Enforce(out.Round, out.Outcome, userIDs, providerIDs); err != nil {
				return ChaosResult{}, fmt.Errorf("harness: %s: replay round %d: %w", l.name, out.Round, err)
			}
		}
		if want := replayer.Ledger.Journal(); !reflect.DeepEqual(live, want) {
			return ChaosResult{}, fmt.Errorf("harness: %s: live journal (%d entries) != serial replay (%d entries)",
				l.name, len(live), len(want))
		}
	}
	return res, nil
}
