// Package harness drives full auction rounds for the evaluation (§6),
// reproducing the paper's measurement methodology: a client submits the
// generated bids to the providers and the clock runs "from when the inputs
// are generated at this client node, till the time it receives the results
// from all the experiment instances".
//
// One harness call = one complete deployment (network, providers, bidders)
// plus one or more timed rounds. Deployments are configured with functional
// options and are transport-agnostic: the default network is the in-memory
// Hub with a latency model standing in for the Guifi.net links (see
// DESIGN.md for the substitution argument), and WithNetwork swaps in any
// other transport.Network.
//
// There are two builders and one driver (DESIGN.md, "Deployments"):
// runSession deploys one auction's bare sessions (RunDistributedDouble and
// RunDistributedStandard are its one-round case, RunSessionDouble its
// pipelined multi-round case), OpenMarket deploys a marketplace of any
// shard count through the federation, and drive runs the closed loop over
// either and checks that every participant holds the same outcomes.
// runCentralized is the paper's trusted-auctioneer baseline.
package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/transport"
	"distauction/internal/wire"
	"distauction/internal/workload"
)

// config is the target of the functional options.
type config struct {
	m, n, k    int
	latency    transport.LatencyModel
	seed       uint64
	bidWindow  time.Duration
	invEps     int
	iterFactor int
	modelDelay time.Duration
	replicated bool
	timeout    time.Duration
	pipeline   int
	network    func(seed int64) transport.Network
}

func newConfig(opts []Option) config {
	cfg := config{
		m: 3, n: 10, k: 1,
		seed:      1,
		bidWindow: 10 * time.Second,
		timeout:   5 * time.Minute,
		pipeline:  2,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Option configures one experiment deployment.
type Option func(*config)

// WithProviders sets the number of providers executing the protocol (the m
// of the paper).
func WithProviders(m int) Option { return func(c *config) { c.m = m } }

// WithUsers sets the number of users (the n of the paper).
func WithUsers(n int) Option { return func(c *config) { c.n = n } }

// WithK sets the coalition bound (distributed runs; m > 2k).
func WithK(k int) Option { return func(c *config) { c.k = k } }

// WithLatency sets the link model (zero = instant, for unit tests).
func WithLatency(model transport.LatencyModel) Option {
	return func(c *config) { c.latency = model }
}

// WithSeed drives the workload generator and the latency jitter.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithBidWindow bounds bid collection; it must comfortably exceed the
// latency model's delay. The default is 10 s.
func WithBidWindow(d time.Duration) Option { return func(c *config) { c.bidWindow = d } }

// WithInvEpsilon tunes the standard auction's 1/ε approximation effort.
func WithInvEpsilon(e int) Option { return func(c *config) { c.invEps = e } }

// WithIterFactor scales the standard auction's iteration count.
func WithIterFactor(f int) Option { return func(c *config) { c.iterFactor = f } }

// WithModelDelay sets the virtual per-solve compute time of the standard
// auction: it models the paper's one-CPU-per-provider testbed on hosts with
// fewer cores.
func WithModelDelay(d time.Duration) Option { return func(c *config) { c.modelDelay = d } }

// WithReplicated disables the standard auction's parallel decomposition
// (ablation baseline: full resilience, no speedup).
func WithReplicated() Option { return func(c *config) { c.replicated = true } }

// WithTimeout bounds the whole experiment. The default is 5 min.
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithPipelineDepth sets the session pipeline depth for multi-round runs.
func WithPipelineDepth(depth int) Option { return func(c *config) { c.pipeline = depth } }

// WithNetwork swaps the transport: the factory is called once per run with
// the run's seed (the Hub uses it for jitter; other transports may ignore
// it). The default builds a Hub with the configured latency model.
func WithNetwork(factory func(seed int64) transport.Network) Option {
	return func(c *config) { c.network = factory }
}

func (c config) newNetwork() transport.Network {
	if c.network != nil {
		return c.network(int64(c.seed))
	}
	return transport.NewHub(c.latency, int64(c.seed))
}

// Result is one timed round.
type Result struct {
	// Duration is the client-observed running time (paper's metric).
	Duration time.Duration
	// Outcome is the (x, ~p) pair all providers agreed on.
	Outcome auction.Outcome
	// Msgs and Bytes are the network totals for the round.
	Msgs  int64
	Bytes int64
}

// SessionResult is one timed multi-round session run.
type SessionResult struct {
	// Rounds is the number of rounds executed; Accepted counts the non-⊥
	// outcomes among them.
	Rounds   int
	Accepted int
	// Duration runs from the first bid submission until every bidder has
	// every round's result.
	Duration time.Duration
	// Msgs and Bytes are the network totals across all rounds.
	Msgs  int64
	Bytes int64
	// ResidualMsgs and ResidualRounds report the protocol state still
	// buffered at the providers after the last round — both must stay flat
	// as Rounds grows (per-round state is reclaimed, not accumulated).
	ResidualMsgs   int
	ResidualRounds int
}

// RoundsPerSec is the throughput metric of the session engine.
func (r SessionResult) RoundsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Rounds) / r.Duration.Seconds()
}

// ids yields 1..m for providers and 1001..1000+n for users.
func ids(m, n int) (providers, users []wire.NodeID) {
	providers = make([]wire.NodeID, m)
	for i := range providers {
		providers[i] = wire.NodeID(i + 1)
	}
	users = make([]wire.NodeID, n)
	for i := range users {
		users[i] = wire.NodeID(1001 + i)
	}
	return providers, users
}

// providerOptions are the session options every provider session of a
// deployment shares. The outcome buffer holds the whole run, so ordered
// emission never blocks on a consumer the driver has not started yet.
func (c config) providerOptions(rounds int) []core.SessionOption {
	return []core.SessionOption{
		core.WithK(c.k),
		core.WithBidWindow(c.bidWindow),
		core.WithRoundTimeout(c.timeout),
		core.WithRoundLimit(uint64(rounds)),
		core.WithMaxConcurrentRounds(c.pipeline),
		core.WithOutcomeBuffer(rounds),
	}
}

// bidderOptions are the bidder-side counterpart of providerOptions.
func (c config) bidderOptions(rounds int) []core.SessionOption {
	return []core.SessionOption{
		core.WithRoundLimit(uint64(rounds)),
		core.WithOutcomeBuffer(c.pipeline + 1),
		core.WithRoundTimeout(c.timeout), // match the run budget, not the 2-min session default
	}
}

// doubleBids generates one double auction's workload, deterministic in the
// seed: the providers' asks and fresh user bids for each of `rounds` rounds
// ([round][user]). Round 1 comes from the same instance as the asks, so a
// one-round run is exactly workload.NewDoubleAuction(seed).
func (c config) doubleBids(auctionIndex, rounds int) (asks []auction.ProviderBid, bids [][]auction.UserBid) {
	seed := c.seed + uint64(auctionIndex)*104729
	bids = make([][]auction.UserBid, rounds)
	for r := range bids {
		inst := workload.NewDoubleAuction(seed+uint64(r)*7919, c.n, c.m)
		if r == 0 {
			asks = inst.Providers
		}
		bids[r] = inst.Users
	}
	return asks, bids
}

// RunDistributedDouble times one distributed double-auction round
// (Figure 4, distributed series).
func RunDistributedDouble(opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	asks, bids := cfg.doubleBids(0, 1)
	return runRound(cfg, core.DoubleAuction{}, asks, bids[0])
}

// RunDistributedStandard times one distributed standard-auction round
// (Figure 5, distributed series). The parallelism is p = ⌊m/(k+1)⌋.
func RunDistributedStandard(opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	mech, bids, err := cfg.standardAuction()
	if err != nil {
		return Result{}, err
	}
	return runRound(cfg, mech, nil, bids)
}

// standardAuction generates one standard auction's workload, deterministic
// in the seed: the mechanism over the providers' capacities, and the user
// bids.
func (c config) standardAuction() (core.Mechanism, []auction.UserBid, error) {
	inst := workload.NewStandardAuction(c.seed, c.n, c.m)
	mech, err := core.NewMechanism("standard", core.MechanismSpec{
		Capacities: inst.Capacities,
		InvEpsilon: c.invEps,
		IterFactor: c.iterFactor,
		ModelDelay: c.modelDelay,
		Replicated: c.replicated,
	})
	return mech, inst.Users, err
}

// runRound is the rounds = 1 case of the session builder; the paper's
// experiments have no use for a ⊥ round, so one is an error here.
func runRound(cfg config, mech core.Mechanism, asks []auction.ProviderBid, bids []auction.UserBid) (Result, error) {
	res, outs, err := runSession(cfg, mech, asks, [][]auction.UserBid{bids})
	if err != nil {
		return Result{}, err
	}
	if outs[0].Err != nil {
		return Result{}, fmt.Errorf("harness: round ended ⊥: %w", outs[0].Err)
	}
	return Result{Duration: res.Duration, Outcome: outs[0].Outcome, Msgs: res.Msgs, Bytes: res.Bytes}, nil
}

// RunSessionDouble measures pipelined multi-round throughput: one
// deployment, `rounds` consecutive double-auction rounds through the
// session engine, bidders running `depth` rounds ahead of the outcomes they
// have seen. It is the baseline for the ROADMAP's scaling work.
func RunSessionDouble(rounds int, opts ...Option) (SessionResult, error) {
	cfg := newConfig(opts)
	if rounds < 1 {
		return SessionResult{}, errors.New("harness: need at least one round")
	}
	asks, bids := cfg.doubleBids(0, rounds)
	res, _, err := runSession(cfg, core.DoubleAuction{}, asks, bids)
	return res, err
}

// runSession is the bare-session builder: m provider sessions and n bidder
// sessions of one auction on a fresh network, len(bids) rounds of mech
// through the closed-loop driver. asks is nil for mechanisms without
// provider bids; bids is [round][user]. Besides the summary it returns the
// first provider's outcome stream.
func runSession(cfg config, mech core.Mechanism, asks []auction.ProviderBid, bids [][]auction.UserBid) (SessionResult, []core.RoundOutcome, error) {
	rounds := len(bids)
	net := cfg.newNetwork()
	defer net.Close()
	providerIDs, userIDs := ids(cfg.m, cfg.n)

	sessions := make([]*core.Session, cfg.m)
	for i, id := range providerIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return SessionResult{}, nil, err
		}
		sopts := append(cfg.providerOptions(rounds), core.WithMechanism(mech))
		if asks != nil {
			sopts = append(sopts, core.WithProviderBid(asks[i]))
		}
		s, err := core.OpenSession(conn, providerIDs, userIDs, sopts...)
		if err != nil {
			return SessionResult{}, nil, err
		}
		defer s.Close()
		sessions[i] = s
	}
	only := lane{name: "session", bidders: make([]*core.BidderSession, cfg.n), bids: bids}
	for i, id := range userIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return SessionResult{}, nil, err
		}
		b, err := core.OpenBidderSession(conn, providerIDs, cfg.bidderOptions(rounds)...)
		if err != nil {
			return SessionResult{}, nil, err
		}
		defer b.Close()
		only.bidders[i] = b
	}

	// Every provider here is honest, so all m streams join the oracle. They
	// close at the round limit, which is the wait for the provider side.
	run, err := drive([]lane{only}, rounds, cfg.pipeline+1, func() ([][][]core.RoundOutcome, error) {
		streams := make([][]core.RoundOutcome, cfg.m)
		for i, s := range sessions {
			for out := range s.Outcomes() {
				streams[i] = append(streams[i], out)
			}
		}
		return [][][]core.RoundOutcome{streams}, nil
	})
	if err != nil {
		return SessionResult{}, nil, err
	}
	msgs, live := residual(sessions)
	stats := net.Stats()
	return SessionResult{
		Rounds:         rounds,
		Accepted:       run.accepted,
		Duration:       run.elapsed,
		Msgs:           stats.MsgsSent,
		Bytes:          stats.BytesSent,
		ResidualMsgs:   msgs,
		ResidualRounds: live,
	}, run.providers[0][0], nil
}

// RunCentralizedDouble times one trusted-auctioneer double-auction round
// (Figure 4, centralized series). The m providers still participate as
// market bidders; one extra node computes.
func RunCentralizedDouble(opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	inst := workload.NewDoubleAuction(cfg.seed, cfg.n, cfg.m)
	return runCentralized(cfg, core.DoubleAuction{}, inst.Users, inst.Providers)
}

// RunCentralizedStandard times one trusted-auctioneer standard-auction
// round (Figure 5, p=1 series).
func RunCentralizedStandard(opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	inst := workload.NewStandardAuction(cfg.seed, cfg.n, cfg.m)
	mech, err := core.NewMechanism("standard", core.MechanismSpec{
		Capacities: inst.Capacities,
		InvEpsilon: cfg.invEps,
		IterFactor: cfg.iterFactor,
		ModelDelay: cfg.modelDelay,
	})
	if err != nil {
		return Result{}, err
	}
	return runCentralized(cfg, mech, inst.Users, nil)
}

func runCentralized(cfg config, mech core.Mechanism, userBids []auction.UserBid, provBids []auction.ProviderBid) (Result, error) {
	net := cfg.newNetwork()
	defer net.Close()
	providerIDs, userIDs := ids(cfg.m, cfg.n)
	const auctioneerID wire.NodeID = 999

	ccfg := core.Config{
		Providers: providerIDs,
		Users:     userIDs,
		K:         0,
		Mechanism: mech,
		BidWindow: cfg.bidWindow,
	}
	aucConn, err := net.Attach(auctioneerID)
	if err != nil {
		return Result{}, err
	}
	auctioneer, err := core.NewCentralized(aucConn, ccfg)
	if err != nil {
		return Result{}, err
	}
	defer auctioneer.Close()

	provConns := make([]transport.Conn, 0, cfg.m)
	if provBids != nil {
		for _, id := range providerIDs {
			conn, err := net.Attach(id)
			if err != nil {
				return Result{}, err
			}
			defer conn.Close()
			provConns = append(provConns, conn)
		}
	}
	bidders := make([]*core.BidderSession, cfg.n)
	for i, id := range userIDs {
		conn, err := net.Attach(id)
		if err != nil {
			return Result{}, err
		}
		bidders[i], err = core.OpenBidderSession(conn, []wire.NodeID{auctioneerID}, cfg.bidderOptions(1)...)
		if err != nil {
			return Result{}, err
		}
		defer bidders[i].Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	const round = 1
	start := time.Now()

	aucErrCh := make(chan error, 1)
	go func() {
		_, err := auctioneer.RunRound(ctx, round)
		aucErrCh <- err
	}()

	for i, conn := range provConns {
		if err := core.SubmitProviderBid(conn, auctioneerID, round, provBids[i]); err != nil {
			return Result{}, err
		}
	}
	for i, b := range bidders {
		if err := b.Submit(round, userBids[i]); err != nil {
			return Result{}, err
		}
	}

	// Each bidder session collects on its own goroutine; the round is over
	// when the last stream has produced its one result.
	outcomes := make([]core.RoundOutcome, cfg.n)
	for i, b := range bidders {
		outcomes[i] = <-b.Outcomes()
	}
	elapsed := time.Since(start)
	if err := <-aucErrCh; err != nil {
		return Result{}, fmt.Errorf("harness: auctioneer: %w", err)
	}
	for i, out := range outcomes {
		if out.Err != nil {
			return Result{}, fmt.Errorf("harness: bidder %d: %w", i, out.Err)
		}
	}
	stats := net.Stats()
	return Result{Duration: elapsed, Outcome: outcomes[0].Outcome, Msgs: stats.MsgsSent, Bytes: stats.BytesSent}, nil
}
