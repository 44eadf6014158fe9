// Package datatransfer implements the data-transfer building block (§4.2 of
// the paper, Property 5).
//
// A set S of providers holds a value v (the result of a task they all
// computed); a set O of providers needs it. Every member of S sends v to
// every member of O; a receiver that observes two different values outputs
// ⊥. With |S| > k at least one sender is outside any coalition, so a
// coalition cannot make an honest receiver adopt v′ ∉ {v, ⊥} — it can only
// force ⊥, which solution preference makes unprofitable.
package datatransfer

import (
	"context"
	"fmt"

	"distauction/internal/proto"
	"distauction/internal/wire"
)

const stepValue uint8 = 1

// Send is the sender half of a transfer: a member of S pushes its copy of
// the value to every member of O. It never blocks on the receivers, so a
// task group can publish its result the moment it is computed and move on —
// this is what lets disjoint groups run truly in parallel (§4.2).
func Send(peer *proto.Peer, round uint64, instance uint32, receiving []wire.NodeID, input []byte) error {
	if err := peer.AbortErr(round); err != nil {
		return err
	}
	tag := wire.Tag{Round: round, Block: wire.BlockTransfer, Instance: instance, Step: stepValue}
	for _, o := range receiving {
		if err := peer.Send(o, tag, input); err != nil {
			return peer.Fail(round, fmt.Sprintf("transfer %d: send to %d", instance, o), err)
		}
	}
	return nil
}

// RecvInto is the receiver half of a transfer: a member of O gathers the
// value from every member of S into buf and requires unanimity; any conflict
// aborts the round (⊥). Callers on the per-round hot path hand in a recycled
// scratch slice so the gather allocates nothing. It returns the agreed value
// and the (possibly grown) scratch for reuse; the scratch's payload views
// must be dropped before the round's protocol state is reclaimed.
func RecvInto(ctx context.Context, peer *proto.Peer, round uint64, instance uint32, sending []wire.NodeID, buf [][]byte) ([]byte, [][]byte, error) {
	tag := wire.Tag{Round: round, Block: wire.BlockTransfer, Instance: instance, Step: stepValue}
	return peer.Unanimous(ctx, tag, sending, buf)
}

// Run executes one transfer synchronously (Send then RecvInto according to the
// local provider's membership). instance must be unique per transfer within
// the round (the task-graph engine numbers transfers by edge).
//
// The local provider's role follows from membership: members of S send
// input; members of O receive and cross-check. The return value is the
// transferred value for members of S∪O and nil for bystanders. Mismatches
// and timeouts abort the round (⊥).
func Run(ctx context.Context, peer *proto.Peer, round uint64, instance uint32,
	sending, receiving []wire.NodeID, input []byte) ([]byte, error) {

	if err := peer.AbortErr(round); err != nil {
		return nil, err
	}
	self := peer.Self()
	inS := proto.ContainsNode(sending, self)
	inO := proto.ContainsNode(receiving, self)
	if !inS && !inO {
		return nil, nil
	}
	if inS {
		if err := Send(peer, round, instance, receiving, input); err != nil {
			return nil, err
		}
		if !inO {
			return input, nil
		}
	}
	v, _, err := RecvInto(ctx, peer, round, instance, sending, nil)
	return v, err
}
