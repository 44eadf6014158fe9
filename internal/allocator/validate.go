package allocator

import (
	"context"
	"crypto/sha256"

	"distauction/internal/proto"
	"distauction/internal/wire"
)

const stepDigest uint8 = 1

// validateInput is the input-validation step (§4.2 of the paper, Property
// 3): it returns nil when every provider holds the same input, and aborts
// the round (⊥) otherwise. buf is the caller's recycled gather scratch,
// returned for reuse.
//
// Each provider broadcasts a digest of its allocator input (the agreed bid
// vector); if any two providers entered the allocator with different
// vectors, their digests differ and the unanimity check fails. The local
// digest is one of those gathered, so unanimity means every provider holds
// this provider's input. This is what makes deviating at the bid agreement
// pointless: a provider that outputs a different vector there is caught
// here before any value derived from it is published (condition (3) of
// Property 2).
//
// The paper's suggested implementation broadcasts the vectors themselves;
// broadcasting a SHA-256 digest detects exactly the same mismatches at
// constant message size.
func validateInput(ctx context.Context, peer *proto.Peer, round uint64, input []byte, buf [][]byte) ([][]byte, error) {
	if err := peer.AbortErr(round); err != nil {
		return buf, err
	}
	digest := sha256.Sum256(input)
	tag := wire.Tag{Round: round, Block: wire.BlockValidate, Instance: 0, Step: stepDigest}
	if err := peer.BroadcastProviders(tag, digest[:]); err != nil {
		return buf, peer.FailCause(round, "validate: broadcast", err)
	}
	_, buf, err := peer.Unanimous(ctx, tag, peer.Providers(), buf)
	return buf, err
}
