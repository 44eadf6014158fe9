package taskgraph

import (
	"context"
	"time"

	"distauction/internal/coin"
	"distauction/internal/proto"
)

// CoinSource supplies common-coin seeds for statically numbered instances.
// coin.Reservoir is the production implementation; tests substitute
// deterministic stubs. Implementations must be safe for concurrent use.
type CoinSource interface {
	// Prefetch starts background tosses for the given instances.
	Prefetch(ctx context.Context, instances ...uint32)
	// Seed blocks until the instance's toss finishes and returns its seed.
	Seed(ctx context.Context, instance uint32) (uint64, error)
	// Close joins every in-flight toss. Whoever built the source closes it,
	// after Executor.Run returns and before the round's protocol state is
	// reclaimed, so no toss outlives the round's state; Run never closes it.
	Close()
}

// Options tunes Executor.Run.
type Options struct {
	// Coins supplies the common coin, as the caller built it: Run draws
	// from it and neither prefetches nor closes it. The session passes the
	// round's gated reservoir, whose commit/echo phases already overlapped
	// bid collection. A graph that draws no coin may leave it nil; under a
	// nil source a task's Coin call fails (ErrCoinUnavailable).
	Coins CoinSource
	// Gate, when non-nil, is an externally running admission check (the
	// allocator's input validation) that must succeed before any result is
	// published — before a task's outbound transfers and before the final
	// return. It must be safe for concurrent use from many goroutines.
	Gate func() error
}

// Execute runs the graph once at the local provider on a one-shot Executor
// and returns the final task's output; see Executor for the scheduling
// model. Every provider of the round must call it with an identical graph.
// Sessions, which run the same graph every round, hold a persistent
// Executor instead. Without opts.Coins, a graph that uses the coin gets a
// reservoir of Execute's own, released at once (there is no agreement to
// wait for), prefetched with the declared draws and closed on return.
// The round runs under its one context (proto.Peer.RoundContext), derived
// from ctx and ended on return.
func Execute(ctx context.Context, peer *proto.Peer, round uint64, g *Graph, opts Options) ([]byte, error) {
	ctx, cancel := peer.RoundContext(ctx, round)
	defer cancel(nil)
	ex := NewExecutor(peer, g, 1)
	defer ex.Close()
	if opts.Coins == nil && g.needsCoin {
		res := coin.NewReservoir(peer, round, time.Time{})
		res.Release()
		res.Prefetch(ctx, g.coinInstances...)
		defer res.Close()
		opts.Coins = res
	}
	return ex.Run(ctx, round, nil, opts)
}
