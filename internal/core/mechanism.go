// Package core assembles the distributed auctioneer of §4. A provider's
// Session chains the bid-agreement block and the (parallel) allocator
// block into one round pipeline and runs it round after round; a
// BidderSession is the user-side client; Centralized is the
// trusted-auctioneer baseline that the evaluation compares against.
// Sessions are the only way to run a round: a single scripted round is a
// session with WithRoundLimit(1).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/mechanism/doubleauction"
	"distauction/internal/mechanism/standardauction"
	"distauction/internal/taskgraph"
	"distauction/internal/wire"
)

// GraphConfig carries the deployment facts a mechanism needs to decompose
// its algorithm into tasks.
type GraphConfig struct {
	// Providers is the provider node set (sorted).
	Providers []wire.NodeID
	// K is the coalition bound; every task group has ≥ K+1 members.
	K int
}

// Mechanism abstracts the allocation algorithm A (§3.1): its direct
// execution (trusted auctioneer baseline) and its task decomposition for
// the parallel allocator. Adding a mechanism is these four methods (plus a
// RegisterMechanism call to make it selectable by name).
type Mechanism interface {
	// Name identifies the mechanism in logs and CLIs.
	Name() string
	// DoubleSided reports whether providers submit bids (double auction).
	DoubleSided() bool
	// Solve runs A directly on the agreed bids. seed feeds randomized
	// mechanisms; deterministic ones ignore it.
	Solve(bids auction.BidVector, seed uint64) (auction.Outcome, error)
	// Graph returns the task decomposition of A. The graph is round-generic:
	// its structure is a pure function of the deployment facts, and its task
	// bodies read each round's agreed bids from TaskContext.Env (an
	// *auction.BidVector) instead of closing over them. A session compiles
	// the graph — and its schedule plan — once at open and runs it every
	// round on a persistent taskgraph.Executor; an error here fails the open.
	// Coin draws are declared on the tasks (Task.CoinDraws): the session
	// pre-tosses exactly the declared instances from the moment the round
	// opens, before its bids are collected, so a task whose draw count
	// depends on the bids must leave CoinDraws zero and draw on demand
	// (UsesCoin). Both kinds go through the round's one gated reservoir.
	Graph(cfg GraphConfig) (*taskgraph.Graph, error)
}

// envBids extracts the round's agreed bid vector a task runs under
// (TaskContext.Env as set by the session).
func envBids(tc *taskgraph.TaskContext) (auction.BidVector, error) {
	bids, ok := tc.Env.(*auction.BidVector)
	if !ok || bids == nil {
		return auction.BidVector{}, errors.New("core: task graph executed without a bid environment")
	}
	return *bids, nil
}

// DoubleAuction is the double-auction mechanism of §5.2.1. Its algorithm is
// sorting-dominated, so the task graph is a single replicated task: every
// provider runs the full algorithm and the group digest-check
// cross-validates the redundant executions (no data transfer needed,
// exactly as the paper prescribes).
type DoubleAuction struct{}

var _ Mechanism = DoubleAuction{}

// Name implements Mechanism.
func (DoubleAuction) Name() string { return "double" }

// DoubleSided implements Mechanism: providers bid in a double auction.
func (DoubleAuction) DoubleSided() bool { return true }

// Solve implements Mechanism; the algorithm is deterministic, seed unused.
func (DoubleAuction) Solve(bids auction.BidVector, _ uint64) (auction.Outcome, error) {
	return doubleauction.Solve(bids)
}

// Graph implements Mechanism with the single replicated task.
func (DoubleAuction) Graph(cfg GraphConfig) (*taskgraph.Graph, error) {
	run := func(ctx context.Context, tc *taskgraph.TaskContext) ([]byte, error) {
		bids, err := envBids(tc)
		if err != nil {
			return nil, err
		}
		out, err := doubleauction.Solve(bids)
		if err != nil {
			return nil, err
		}
		return out.Encode(), nil
	}
	return taskgraph.New(cfg.Providers, cfg.K, []taskgraph.Task{
		{ID: 1, Name: "double-auction", Group: cfg.Providers, Run: run},
	})
}

// StandardAuction is the standard-auction mechanism of §5.2.2 with the task
// decomposition of Algorithm 1: Task 1 computes the randomized allocation at
// every provider (it draws the common coin); Tasks 2.S compute the VCG
// payments of disjoint user subsets, one per provider group, in parallel;
// the final task gathers the payment shares into the outcome.
type StandardAuction struct {
	// Params configures the underlying (1−ε) mechanism. Capacities must be
	// set; they are deployment facts, not bids.
	Params standardauction.Params
	// Replicated disables the parallel decomposition: every provider runs
	// the whole algorithm (like the double auction). This is the ablation
	// baseline for the design choice that §5.2.2 motivates — it keeps all
	// of the framework's resilience but none of its speedup.
	Replicated bool
}

var _ Mechanism = StandardAuction{}

// Name implements Mechanism.
func (StandardAuction) Name() string { return "standard" }

// DoubleSided implements Mechanism: only users bid.
func (StandardAuction) DoubleSided() bool { return false }

// Solve implements Mechanism: the serial baseline of Figure 5 (p=1).
func (m StandardAuction) Solve(bids auction.BidVector, seed uint64) (auction.Outcome, error) {
	return standardauction.Solve(bids.Users, m.Params, seed)
}

// Graph implements Mechanism with the three-stage decomposition of
// Algorithm 1 (or a single replicated task when Replicated is set). Both
// shapes draw the coin exactly once, in task 1, whatever the bids.
func (m StandardAuction) Graph(cfg GraphConfig) (*taskgraph.Graph, error) {
	params := m.Params
	if m.Replicated {
		return taskgraph.New(cfg.Providers, cfg.K, []taskgraph.Task{{
			ID: 1, Name: "standard-replicated", Group: cfg.Providers, UsesCoin: true, CoinDraws: 1,
			Run: func(ctx context.Context, tc *taskgraph.TaskContext) ([]byte, error) {
				bids, err := envBids(tc)
				if err != nil {
					return nil, err
				}
				seed, err := tc.Coin()
				if err != nil {
					return nil, err
				}
				out, err := standardauction.Solve(bids.Users, params, seed)
				if err != nil {
					return nil, err
				}
				return out.Encode(), nil
			},
		}})
	}
	groups := taskgraph.Groups(cfg.Providers, cfg.K)
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: cannot form any group of %d providers from %d", cfg.K+1, len(cfg.Providers))
	}
	c := len(groups)

	tasks := make([]taskgraph.Task, 0, c+2)
	tasks = append(tasks, taskgraph.Task{
		ID: 1, Name: "allocate", Group: cfg.Providers, UsesCoin: true, CoinDraws: 1,
		Run: func(ctx context.Context, tc *taskgraph.TaskContext) ([]byte, error) {
			bids, err := envBids(tc)
			if err != nil {
				return nil, err
			}
			seed, err := tc.Coin()
			if err != nil {
				return nil, err
			}
			assign, err := standardauction.SolveAllocation(bids.Users, params, seed)
			if err != nil {
				return nil, err
			}
			return encodeAllocResult(seed, assign), nil
		},
	})
	deps := []uint32{1}
	for gi := range groups {
		gi := gi
		tasks = append(tasks, taskgraph.Task{
			ID: uint32(2 + gi), Name: fmt.Sprintf("payments-%d", gi), Deps: []uint32{1}, Group: groups[gi],
			Run: func(ctx context.Context, tc *taskgraph.TaskContext) ([]byte, error) {
				bids, err := envBids(tc)
				if err != nil {
					return nil, err
				}
				users := bids.Users
				seed, assign, err := decodeAllocResult(tc.Inputs[1], len(users))
				if err != nil {
					return nil, err
				}
				// The compute model bills one counterfactual solve per user in
				// the share; sleep the share's total once instead of per
				// payment — identical modeled time, one timer overshoot
				// instead of n/c on the round's critical path.
				share := 0
				for i := range users {
					if i%c == gi {
						share++
					}
				}
				if params.ModelDelay > 0 && share > 0 {
					t := time.NewTimer(time.Duration(share) * params.ModelDelay)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return nil, ctx.Err()
					}
				}
				noDelay := params
				noDelay.ModelDelay = 0
				var idx []int
				var pays []fixed.Fixed
				for i := range users {
					if i%c != gi {
						continue
					}
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					pay, err := standardauction.Payment(users, noDelay, seed, assign, i)
					if err != nil {
						return nil, err
					}
					idx = append(idx, i)
					pays = append(pays, pay)
				}
				return encodePayShare(idx, pays), nil
			},
		})
		deps = append(deps, uint32(2+gi))
	}
	tasks = append(tasks, taskgraph.Task{
		ID: uint32(2 + c), Name: "gather", Deps: deps, Group: cfg.Providers,
		Run: func(ctx context.Context, tc *taskgraph.TaskContext) ([]byte, error) {
			bids, err := envBids(tc)
			if err != nil {
				return nil, err
			}
			users := bids.Users
			_, assign, err := decodeAllocResult(tc.Inputs[1], len(users))
			if err != nil {
				return nil, err
			}
			pays := make([]fixed.Fixed, len(users))
			for gi := 0; gi < c; gi++ {
				idx, share, err := decodePayShare(tc.Inputs[uint32(2+gi)])
				if err != nil {
					return nil, err
				}
				for j, i := range idx {
					if i < 0 || i >= len(users) || i%c != gi {
						return nil, fmt.Errorf("core: payment share %d covers foreign user %d", gi, i)
					}
					pays[i] = share[j]
				}
			}
			out, err := standardauction.BuildOutcome(users, params, assign, pays)
			if err != nil {
				return nil, err
			}
			return out.Encode(), nil
		},
	})
	return taskgraph.New(cfg.Providers, cfg.K, tasks)
}

// encodeAllocResult serialises Task 1's output: the coin seed plus the
// assignment vector.
func encodeAllocResult(seed uint64, assign standardauction.Assignment) []byte {
	enc := wire.NewEncoder(16 + 2*len(assign))
	enc.Uint64(seed)
	enc.Uvarint(uint64(len(assign)))
	for _, p := range assign {
		enc.Varint(int64(p))
	}
	return enc.Buffer()
}

func decodeAllocResult(raw []byte, wantUsers int) (uint64, standardauction.Assignment, error) {
	d := wire.NewDecoder(raw)
	seed := d.Uint64()
	n := d.SliceLen(1)
	assign := make(standardauction.Assignment, n)
	for i := range assign {
		assign[i] = int(d.Varint())
	}
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("decode alloc result: %w", err)
	}
	if n != wantUsers {
		return 0, nil, fmt.Errorf("core: alloc result covers %d users, want %d", n, wantUsers)
	}
	return seed, assign, nil
}

// encodePayShare serialises one group's payment share as (user, payment)
// pairs.
func encodePayShare(idx []int, pays []fixed.Fixed) []byte {
	enc := wire.NewEncoder(8 + 10*len(idx))
	enc.Uvarint(uint64(len(idx)))
	for j, i := range idx {
		enc.Uvarint(uint64(i))
		enc.Fixed(pays[j])
	}
	return enc.Buffer()
}

func decodePayShare(raw []byte) ([]int, []fixed.Fixed, error) {
	d := wire.NewDecoder(raw)
	n := d.SliceLen(2)
	idx := make([]int, n)
	pays := make([]fixed.Fixed, n)
	for j := 0; j < n; j++ {
		idx[j] = int(d.Uvarint())
		pays[j] = d.Fixed()
	}
	if err := d.Finish(); err != nil {
		return nil, nil, fmt.Errorf("decode pay share: %w", err)
	}
	return idx, pays, nil
}

// ErrConfig reports an invalid deployment configuration.
var ErrConfig = errors.New("core: invalid configuration")
