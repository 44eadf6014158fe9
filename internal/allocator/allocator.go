// Package allocator implements the allocator building block (§4.1–4.2 of
// the paper, Property 2) by chaining input validation with the task-graph
// simulation of the allocation algorithm A (Figure 3).
//
// Theorem 2 of the paper shows this composition satisfies all four
// conditions of Property 2 given the properties of its blocks:
//
//  1. correct simulation of A — the task graph replays A deterministically
//     from the agreed input and the common coin;
//  2. resilience to collusive influence — every task group has more than k
//     members and cross-validates, so a coalition can only force ⊥;
//  3. input validation — providers entering with different vectors output ⊥;
//  4. k-resiliency for solution preference.
//
// Input validation runs only when bid agreement took its fallback. On the
// digest path every provider already sent every other the digest of the
// vector it holds, and all m were equal: that gather is Property 3 for the
// round, so repeating it would compare the same m digests of the same bytes
// a second time. After the fallback the providers each hold the leaders'
// decision, which nothing has compared yet, and validation runs
// *concurrently* with the task graph: the scheduler computes speculatively
// from the local input but publishes nothing — no cross-group transfer, no
// final return — until validation confirms every provider entered with the
// same vector (the scheduler's publish gate). A mismatch therefore still
// yields ⊥ before any value derived from a disputed input can leave the
// provider, which is all condition (3) requires.
//
// Input validation (§4.2, Property 3) is a step of this block, as in the
// paper's Figure 3, not a block of its own: see validateInput.
package allocator

import (
	"context"
	"sync"

	"distauction/internal/proto"
	"distauction/internal/taskgraph"
	"distauction/internal/wire"
)

// valGate is the pooled per-round state of the overlapped input validation:
// a WaitGroup join plus the validator's verdict and gather scratch. Its two
// closures are built once and recycled with it, so a steady-state round pays
// one pool hit for the whole validation plumbing instead of a channel, two
// closures and their captures.
type valGate struct {
	wg    sync.WaitGroup
	err   error
	ctx   context.Context
	peer  *proto.Peer
	round uint64
	input []byte
	buf   [][]byte     // digest-gather scratch; views cleared before pooling
	run   func()       // runs validateInput with the fields above, then Done
	wait  func() error // the publish gate: joins, then reports the verdict
}

var gatePool = sync.Pool{New: func() any {
	vg := &valGate{}
	vg.run = func() {
		vg.buf, vg.err = validateInput(vg.ctx, vg.peer, vg.round, vg.input, vg.buf)
		vg.wg.Done()
	}
	vg.wait = func() error {
		vg.wg.Wait()
		return vg.err
	}
	return vg
}}

// Run executes the allocator at the local provider: it runs the task graph
// on ex and returns the final task's output, and when input is non-nil it
// validates that all providers hold input while the graph runs. Any
// deviation or timeout aborts the round (⊥).
//
// input is the canonical encoding of the agreed bid vector, or nil when bid
// agreement's digest path already established that every provider holds
// the same vector; env is the same vector as the task bodies read it
// (TaskContext.Env); ex must run an identical graph at every provider.
// coins is the round's coin source, which the caller builds, prefetches
// and closes (the session passes the round's gated reservoir, whose
// commit/echo phases already overlapped bid collection); it may be nil only
// for a graph that draws no coin. An already-aborted round is handled by
// Executor.Run and by validateInput's own fast-fail.
func Run(ctx context.Context, peer *proto.Peer, round uint64, input []byte, ex *taskgraph.Executor, env any, coins taskgraph.CoinSource) ([]byte, error) {
	if input == nil {
		out, err := ex.Run(ctx, round, env, taskgraph.Options{Coins: coins})
		return finish(peer, round, out, err)
	}
	vg := gatePool.Get().(*valGate)
	vg.ctx, vg.peer, vg.round, vg.input = ctx, peer, round, input
	vg.err = nil
	vg.wg.Add(1)
	go vg.run()

	out, err := ex.Run(ctx, round, env, taskgraph.Options{
		Coins: coins,
		Gate:  vg.wait,
	})
	vg.wg.Wait() // join the validator on every path
	verr := vg.err
	vg.ctx, vg.peer, vg.input = nil, nil, nil
	clear(vg.buf)
	gatePool.Put(vg)
	if err == nil && verr != nil {
		// Normally subsumed by the scheduler's gate; kept as a backstop.
		return nil, verr
	}
	return finish(peer, round, out, err)
}

// finish is Run's verdict on the graph's result: its error, or ⊥ for a run
// that returned no outcome.
func finish(peer *proto.Peer, round uint64, out []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, peer.Fail(round, "allocator", errEmptyOutput)
	}
	return out, nil
}

// errEmptyOutput is the cause of a graph run that returned no outcome.
var errEmptyOutput = &proto.AbortError{Code: proto.AbortProtocol, Culprit: wire.Broadcast, Reason: "empty output"}
