package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/market"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// MarketResult summarises one marketplace throughput run: the run's own
// measurements plus the federation's snapshot after it.
type MarketResult struct {
	// Snapshot is the stats tree once every provider consumed every round.
	// Its root Counters count each round once (the shard primaries' view —
	// Rounds, Accepted, Latency, AbortCodes; PerNode has every member's own
	// gates); its root Attachment sums the provider muxes.
	federation.Snapshot
	// Duration runs from the first bid submission until every bidder holds
	// every round's result of every auction it joined.
	Duration time.Duration
	// ResidualMsgs and ResidualRounds sum the buffered protocol state over
	// every provider session of every auction after the run — flat in
	// rounds, or per-round reclamation broke.
	ResidualMsgs   int
	ResidualRounds int
}

// Market is one open in-process marketplace deployment: shards × m
// provider markets behind one federation, n users each joined to every
// auction through one federated bidder attachment, and the double-auction
// workload they will run. OpenMarket builds it, Run drives it once, Stats
// reads it live (before, during and after Run), Close tears it down.
type Market struct {
	cfg     config
	rounds  int
	net     transport.Network
	fed     *federation.Market
	bidders []*federation.Bidder
	lanes   []lane
	primary observer
}

// observer collects the outcome stream of each auction's shard primary, by
// auction name — the provider side of the agreement oracle.
type observer struct {
	mu     sync.Mutex
	byName map[string][]core.RoundOutcome
}

func (o *observer) record(name string, out core.RoundOutcome) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.byName == nil {
		o.byName = make(map[string][]core.RoundOutcome)
	}
	o.byName[name] = append(o.byName[name], out)
}

// streams returns what was recorded in the driver's [lane][stream][round]
// shape, one stream per lane.
func (o *observer) streams(lanes []lane) [][][]core.RoundOutcome {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([][][]core.RoundOutcome, len(lanes))
	for j, l := range lanes {
		out[j] = [][]core.RoundOutcome{o.byName[l.name]}
	}
	return out
}

// committees lays out the provider fleets: shard s (1-based) is run by
// nodes (s-1)m+1 … sm, so one shard is exactly the 1..m of ids.
func committees(shards, m int) []federation.ShardSpec {
	specs := make([]federation.ShardSpec, shards)
	for s := range specs {
		committee := make([]wire.NodeID, m)
		for i := range committee {
			committee[i] = wire.NodeID(s*m + i + 1)
		}
		specs[s] = federation.ShardSpec{Index: s + 1, Providers: committee}
	}
	return specs
}

// admissionWindow sizes the providers' admission window for a closed-loop
// run. A bidder may run ahead of it by its own look-ahead plus however far
// the market's outcome consumer lags ordered emission — bounded by the
// session's outcome buffer, which holds the whole run. The window covers
// that whole skew: runs assert zero drops, and on a saturated host the
// consumer can lag many rounds while bidders keep receiving results
// straight off the wire.
func (c config) admissionWindow(rounds int) int { return rounds + c.pipeline + 3 }

// joinLanes attaches the n users, each through ONE federated bidder
// attachment, and joins every lane where its auction was placed. The
// bidders opened so far are returned even on error, for the caller to close.
func joinLanes(cfg config, net transport.Network, shards []federation.ShardSpec, lanes []lane, rounds int) ([]*federation.Bidder, error) {
	_, userIDs := ids(cfg.m, cfg.n)
	for j := range lanes {
		lanes[j].bidders = make([]*core.BidderSession, cfg.n)
	}
	bidders := make([]*federation.Bidder, 0, cfg.n)
	for i, id := range userIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return bidders, err
		}
		fb, err := federation.NewBidder(conn, shards)
		if err != nil {
			return bidders, err
		}
		bidders = append(bidders, fb)
		for j, l := range lanes {
			s, err := fb.JoinOn(l.name, l.shard, l.local, cfg.bidderOptions(rounds)...)
			if err != nil {
				return bidders, err
			}
			lanes[j].bidders[i] = s
		}
	}
	return bidders, nil
}

var errShape = errors.New("harness: need at least one shard, one auction and one round")

// OpenMarket is the market builder: `shards` committees of m providers each
// (disjoint fleets) behind one federation.Open, the given auctions opened
// on every member of their shard, n bidders joined to all of them. One
// shard is wire-identical to a plain market (federation.WireLane(1, l) ==
// l), so there is no separate unsharded builder.
//
// Each auction spec supplies the placement only — Name, and optionally
// Shard and LocalLane (zero routes / derives them, as in the federation);
// the builder fills in the users, the session options and the per-member
// asks of a double auction running `rounds` pipelined rounds.
func OpenMarket(shards int, auctions []federation.AuctionSpec, rounds int, opts ...Option) (*Market, error) {
	if shards < 1 || len(auctions) < 1 || rounds < 1 {
		return nil, errShape
	}
	cfg := newConfig(opts)
	d := &Market{cfg: cfg, rounds: rounds, net: cfg.newNetwork()}
	if err := d.open(committees(shards, cfg.m), auctions); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Market) open(shards []federation.ShardSpec, auctions []federation.AuctionSpec) error {
	cfg := d.cfg
	_, userIDs := ids(cfg.m, cfg.n)
	var err error
	d.fed, err = federation.Open(d.net, shards,
		federation.WithMarketOptions(market.WithAdmissionWindow(cfg.admissionWindow(d.rounds)), market.WithSweepEvery(0)),
		federation.WithOnOutcome(func(name string, _ int, out core.RoundOutcome) { d.primary.record(name, out) }))
	if err != nil {
		return err
	}
	d.lanes = make([]lane, len(auctions))
	for j, spec := range auctions {
		asks, bids := cfg.doubleBids(j, d.rounds)
		spec.Users = userIDs
		spec.Options = append(cfg.providerOptions(d.rounds), core.WithMechanismName("double"))
		spec.MemberOptions = func(i int, _ wire.NodeID) []core.SessionOption {
			return []core.SessionOption{core.WithProviderBid(asks[i])}
		}
		if err := d.fed.OpenAuction(spec); err != nil {
			return err
		}
		shard, wireLane, err := d.fed.Place(spec.Name)
		if err != nil {
			return err
		}
		_, local := federation.SplitLane(wireLane)
		d.lanes[j] = lane{name: spec.Name, shard: shard, local: local, bids: bids}
	}
	d.bidders, err = joinLanes(cfg, d.net, shards, d.lanes, d.rounds)
	return err
}

// Stats is the federation's live rollup of the deployment.
func (d *Market) Stats() federation.Snapshot { return d.fed.Stats() }

// Close tears the deployment down: bidders, then the provider markets, then
// the network.
func (d *Market) Close() {
	for _, fb := range d.bidders {
		_ = fb.Close()
	}
	if d.fed != nil {
		_ = d.fed.Close()
	}
	_ = d.net.Close()
}

// Run drives every auction through its rounds once (see drive) and reads
// the aggregate counters and the residual protocol state.
//
// With a non-zero latency model a single auction is latency-bound — its
// sequential protocol hops leave the host idle — so aggregate rounds/s
// grows with the auction count until the CPU saturates (bench's
// market64-closed workload runs that saturated point), and the shards axis
// measures what federating the catalog buys on top
// (BenchmarkFederationThroughput).
func (d *Market) Run() (MarketResult, error) {
	// Each of the m members of an auction's shard counts its rounds.
	want := int64(len(d.lanes) * d.rounds * d.cfg.m)
	run, err := drive(d.lanes, d.rounds, d.cfg.pipeline+1, func() ([][][]core.RoundOutcome, error) {
		err := waitConsumed(d.cfg.timeout, want, func() (consumed int64) {
			for _, ns := range d.fed.Stats().PerNode {
				consumed += ns.Rounds
			}
			return consumed
		})
		return d.primary.streams(d.lanes), err
	})
	if err != nil {
		return MarketResult{}, err
	}
	res := MarketResult{Snapshot: d.fed.Stats(), Duration: run.elapsed}
	var sessions []*core.Session
	for _, l := range d.lanes {
		handles, ok := d.fed.AuctionHandles(l.name)
		if !ok {
			return MarketResult{}, fmt.Errorf("harness: auction %q vanished", l.name)
		}
		for _, a := range handles {
			// Every outcome has been consumed, so the only event left on the
			// stream is its close — which the session performs after
			// reclaiming the last round's state.
			<-a.Session().Outcomes()
			sessions = append(sessions, a.Session())
		}
	}
	res.ResidualMsgs, res.ResidualRounds = residual(sessions)
	return res, nil
}

// RunMarket measures aggregate marketplace throughput: `auctions` double
// auctions partitioned round-robin over `shards` committees (local lanes
// pinned 1, 2, … per shard, so generated names cannot collide), each
// running `rounds` pipelined rounds. It is OpenMarket, one Run and Close.
func RunMarket(shards, auctions, rounds int, opts ...Option) (MarketResult, error) {
	if shards < 1 || auctions < 1 {
		return MarketResult{}, errShape
	}
	specs := make([]federation.AuctionSpec, auctions)
	for j := range specs {
		specs[j] = federation.AuctionSpec{
			Name:      fmt.Sprintf("auction-%03d", j),
			Shard:     j%shards + 1,
			LocalLane: uint32(j/shards + 1),
		}
	}
	d, err := OpenMarket(shards, specs, rounds, opts...)
	if err != nil {
		return MarketResult{}, err
	}
	defer d.Close()
	return d.Run()
}
