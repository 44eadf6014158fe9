package taskgraph

import (
	"context"

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
	// Close joins every in-flight toss. Executor.Run always closes the source
	// it was handed before returning, so no toss outlives the round's state.
	Close()
}

// Options tunes Executor.Run.
type Options struct {
	// Coins supplies the common coin. Nil lets Run build its own reservoir;
	// the session passes a pre-warmed gated reservoir whose commit/echo
	// phases already overlapped bid agreement.
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
// Executor instead.
func Execute(ctx context.Context, peer *proto.Peer, round uint64, g *Graph, opts Options) ([]byte, error) {
	ex := NewExecutor(peer, g, 1)
	defer ex.Close()
	return ex.Run(ctx, round, nil, opts)
}
