package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/fixed"
	"distauction/internal/market"
	"distauction/internal/transport"
)

func TestDistributedDoubleRound(t *testing.T) {
	res, err := RunDistributedDouble(
		WithProviders(3), WithUsers(5), WithK(1), WithSeed(1), WithBidWindow(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Error("no duration measured")
	}
	if res.Msgs == 0 || res.Bytes == 0 {
		t.Error("no traffic recorded")
	}
	if res.Outcome.Alloc.NumUsers != 5 || res.Outcome.Alloc.NumProviders != 3 {
		t.Errorf("outcome shape %dx%d", res.Outcome.Alloc.NumUsers, res.Outcome.Alloc.NumProviders)
	}
}

func TestDistributedStandardRound(t *testing.T) {
	res, err := RunDistributedStandard(
		WithProviders(4), WithUsers(6), WithK(1), WithSeed(2), WithBidWindow(time.Second), WithInvEpsilon(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 6 || res.Outcome.Alloc.NumProviders != 4 {
		t.Errorf("outcome shape %dx%d", res.Outcome.Alloc.NumUsers, res.Outcome.Alloc.NumProviders)
	}
}

func TestCentralizedDoubleRound(t *testing.T) {
	res, err := RunCentralizedDouble(
		WithProviders(3), WithUsers(5), WithSeed(1), WithBidWindow(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 5 {
		t.Error("outcome shape wrong")
	}
}

func TestCentralizedStandardRound(t *testing.T) {
	res, err := RunCentralizedStandard(
		WithProviders(4), WithUsers(6), WithSeed(2), WithBidWindow(time.Second), WithInvEpsilon(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 6 {
		t.Error("outcome shape wrong")
	}
}

// The same seed must yield the same workload, so double-auction outcomes
// (deterministic mechanism) are identical between a distributed run and a
// centralized run — the "correct simulation" property end to end.
func TestDistributedMatchesCentralizedDouble(t *testing.T) {
	opts := []Option{WithProviders(3), WithUsers(8), WithK(1), WithSeed(42), WithBidWindow(time.Second)}
	dist, err := RunDistributedDouble(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cent, err := RunCentralizedDouble(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Outcome.Digest() != cent.Outcome.Digest() {
		t.Error("distributed and centralized double-auction outcomes differ")
	}
}

// A multi-round session run must complete every round, accept them all
// (honest deployment), and leave no residual protocol state behind.
func TestSessionDoubleThroughput(t *testing.T) {
	res, err := RunSessionDouble(25,
		WithProviders(3), WithUsers(4), WithK(1), WithSeed(7),
		WithBidWindow(2*time.Second), WithPipelineDepth(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 25 || res.Accepted != 25 {
		t.Errorf("rounds=%d accepted=%d, want 25/25", res.Rounds, res.Accepted)
	}
	if res.RoundsPerSec() <= 0 {
		t.Error("no throughput measured")
	}
	if res.ResidualMsgs != 0 || res.ResidualRounds != 0 {
		t.Errorf("residual state after run: %d msgs, %d rounds", res.ResidualMsgs, res.ResidualRounds)
	}
}

// The harness is transport-agnostic: the same deployment code runs over
// real TCP sockets via WithNetwork.
func TestDistributedDoubleOverTCP(t *testing.T) {
	res, err := RunDistributedDouble(
		WithProviders(3), WithUsers(3), WithK(1), WithSeed(3), WithBidWindow(2*time.Second),
		WithNetwork(func(int64) transport.Network {
			return transport.NewTCPNetwork(transport.TCPNetworkConfig{})
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Alloc.NumUsers != 3 {
		t.Error("outcome shape wrong")
	}
}

// With network latency injected, the distributed round must be measurably
// slower than the zero-latency run — the communication overhead that
// Figure 4 plots.
func TestLatencyShowsUpInMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	base := []Option{WithProviders(3), WithUsers(4), WithK(1), WithSeed(3), WithBidWindow(2 * time.Second)}
	fast, err := RunDistributedDouble(base...)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunDistributedDouble(append(base,
		WithLatency(transport.LatencyModel{Base: 10 * time.Millisecond}))...)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration < fast.Duration+20*time.Millisecond {
		t.Errorf("latency not reflected: fast=%v slow=%v", fast.Duration, slow.Duration)
	}
}

// RunDistributedDouble is the rounds = 1 case of the session builder: for
// the same seed, round 1 of a pipelined session run is the same auction and
// must clear to the same outcome, whatever runs behind it in the pipeline.
func TestSessionRoundOneMatchesDistributedDouble(t *testing.T) {
	opts := []Option{WithProviders(3), WithUsers(6), WithK(1), WithSeed(9), WithBidWindow(time.Second)}
	single, err := RunDistributedDouble(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := newConfig(opts)
	for _, rounds := range []int{1, 5} {
		asks, bids := cfg.doubleBids(0, rounds)
		res, outs, err := runSession(cfg, core.DoubleAuction{}, asks, bids)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != rounds || len(outs) != rounds {
			t.Fatalf("rounds=%d: accepted %d, provider stream holds %d", rounds, res.Accepted, len(outs))
		}
		if !sameOutcome(outs[0].Outcome, single.Outcome) {
			t.Errorf("rounds=%d: round 1 differs from RunDistributedDouble's outcome", rounds)
		}
	}
}

// One builder serves every market shape: a 1-auction market is a session
// behind a mux, a 1-shard federation is a plain market. Every shape must
// accept every round, drop nothing and reclaim all protocol state — also
// over the link layer (seq/ack framing, heartbeats, resend buffers) on a
// loss-free Hub, whose bookkeeping must change none of that.
func TestRunMarketShapes(t *testing.T) {
	const rounds = 6
	for _, shape := range []struct {
		shards, auctions int
		resilient        bool
	}{{1, 1, false}, {1, 4, false}, {2, 1, false}, {2, 4, false}, {1, 4, true}} {
		shards, auctions := shape.shards, shape.auctions
		name := fmt.Sprintf("shards=%d/auctions=%d", shards, auctions)
		opts := []Option{WithProviders(3), WithUsers(4), WithK(1), WithSeed(5), WithBidWindow(2 * time.Second)}
		if shape.resilient {
			name += "/resilient"
			opts = append(opts, WithNetwork(func(seed int64) transport.Network {
				return transport.Resilient(transport.NewHub(transport.LatencyModel{}, seed), transport.ResilientConfig{})
			}))
		}
		t.Run(name, func(t *testing.T) {
			res, err := RunMarket(shards, auctions, rounds, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(auctions * rounds); res.Accepted != want || res.Rounds != want {
				t.Errorf("rounds=%d accepted=%d, want %d", res.Rounds, res.Accepted, want)
			}
			// The root counts the primaries' gates; every member runs its own.
			for _, ns := range res.PerNode {
				if ns.BidsDropped != 0 || ns.ParkedDropped != 0 {
					t.Errorf("node %d dropped %d bids, %d parked envelopes", ns.Node, ns.BidsDropped, ns.ParkedDropped)
				}
			}
			if res.ResidualMsgs != 0 || res.ResidualRounds != 0 {
				t.Errorf("residual state after run: %d msgs, %d rounds", res.ResidualMsgs, res.ResidualRounds)
			}
			if len(res.PerShard) != shards {
				t.Errorf("shard rollup: %d entries, want %d", len(res.PerShard), shards)
			}
			checkRollUp(t, res.Snapshot)
		})
	}
}

// checkRollUp holds a federation snapshot to the stats tree's fold rule —
// every scope is the Add of its children — and, for one shard, to the
// equivalence DESIGN.md states: a 1-shard federation is an unsharded market,
// so its root and its shard carry exactly the primary node's Counters.
func checkRollUp(t *testing.T, snap federation.Snapshot) {
	t.Helper()
	var root market.Counters
	for _, ss := range snap.PerShard {
		var shard market.Counters
		for _, as := range ss.Auctions {
			shard.Add(as.Counters)
		}
		if !reflect.DeepEqual(shard, ss.Counters) {
			t.Errorf("shard %d is not the Add of its auctions", ss.Shard)
		}
		root.Add(ss.Counters)
	}
	if !reflect.DeepEqual(root, snap.Counters) {
		t.Errorf("root counters are not the Add of the shards'")
	}
	var attachment market.Attachment
	for _, ns := range snap.PerNode {
		attachment.Add(ns.Attachment)
	}
	if !reflect.DeepEqual(attachment, snap.Attachment) {
		t.Errorf("root attachment is not the Add of the nodes'")
	}
	if len(snap.PerShard) == 1 {
		primary := snap.PerNode[0]
		if primary.Node != snap.PerShard[0].Committee[0] {
			t.Fatalf("first node row is %d, not the primary", primary.Node)
		}
		if !reflect.DeepEqual(primary.Counters, snap.Counters) || !reflect.DeepEqual(primary.Counters, snap.PerShard[0].Counters) {
			t.Errorf("one-shard federation differs from its primary's market:\n primary %+v\n root    %+v", primary.Counters, snap.Counters)
		}
	}
}

// The outcome-agreement oracle on synthetic streams: it accepts agreement
// (including unanimous ⊥) and names each way of breaking it.
func TestCheckAgreement(t *testing.T) {
	outcome := func(units int64) auction.Outcome {
		return auction.Outcome{
			Alloc: auction.Allocation{NumUsers: 1, NumProviders: 1, Units: []fixed.Fixed{fixed.Fixed(units)}},
			Pay:   auction.Payments{ByUser: []fixed.Fixed{1}, ToProvider: []fixed.Fixed{1}},
		}
	}
	bot := errors.New("⊥")
	// Three rounds: accepted, unanimous ⊥, accepted.
	stream := func() []core.RoundOutcome {
		return []core.RoundOutcome{
			{Round: 1, Outcome: outcome(3)},
			{Round: 2, Err: bot},
			{Round: 3, Outcome: outcome(5)},
		}
	}
	if accepted, err := checkAgreement(3, [][]core.RoundOutcome{stream(), stream(), stream()}); err != nil || accepted != 2 {
		t.Fatalf("agreeing streams: accepted=%d err=%v, want 2, nil", accepted, err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(s []core.RoundOutcome) []core.RoundOutcome
		want    string
	}{
		{"differing allocation", func(s []core.RoundOutcome) []core.RoundOutcome {
			s[2].Outcome = outcome(6)
			return s
		}, "different outcome"},
		{"⊥ vs outcome", func(s []core.RoundOutcome) []core.RoundOutcome {
			s[1] = core.RoundOutcome{Round: 2, Outcome: outcome(4)}
			return s
		}, "round 2"},
		{"outcome vs ⊥", func(s []core.RoundOutcome) []core.RoundOutcome {
			s[0].Err = bot
			return s
		}, "round 1"},
		{"missing round", func(s []core.RoundOutcome) []core.RoundOutcome {
			return s[:2]
		}, "2 of 3 rounds"},
		{"skipped round", func(s []core.RoundOutcome) []core.RoundOutcome {
			s[1].Round = 3
			return s
		}, "holds round 3 at position 2"},
	} {
		_, err := checkAgreement(3, [][]core.RoundOutcome{stream(), stream(), tc.corrupt(stream())})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
