// Package consensus implements the rational-consensus building block used by
// bid agreement (§4.1 of the paper, after Afek, Ginzberg, Landau Feibish and
// Sulamy, PODC 2014).
//
// The paper runs one binary consensus instance per bit of every bidder's bid
// stream, multiplexing instances by tagging messages with the bidder
// identifier and bit position. This implementation batches that whole
// ensemble into one *vector* consensus: each provider proposes the full
// vector of per-bidder values, and a jointly-elected random leader decides
// each disputed slot. The message complexity drops from O(bits·m²) to O(m²)
// per auction round while preserving the construction's two properties:
//
//  1. If all providers follow the protocol, they output a common vector in
//     which every slot equals some provider's proposal for that slot; if all
//     proposals for a slot agree, the output is that value (validity).
//  2. The per-slot leader is uniform and fixed before any proposal is
//     revealed (commit → echo → reveal, as in the common coin), so with
//     m > 2k a coalition can neither dictate a disputed slot nor learn
//     anything useful before committing — it can only force ⊥.
//
// # Digest first
//
// Honest providers enter bid agreement with identical vectors, so the block
// tests that first: every provider broadcasts the SHA-256 digest of its
// proposal vector and gathers all m (one hop, m(m−1) fixed-size messages).
// When all m equal its own, the vectors are byte-identical by collision
// resistance, every slot is unanimous, and the local input IS the decided
// output; no vector and no leader share ever crosses the network. The
// gather is a plain one, not a unanimity check: a mismatch sends the
// provider to the fallback, not to ⊥.
//
// # Fallback
//
// Otherwise the provider runs the leader election: one coin.Exchange in
// which every provider commits to its random 64-bit share followed by the
// digest it broadcast — a committed digest other than the broadcast one is
// a protocol abort charged to its sender — then the full vectors are
// exchanged (one extra step), verified slot-for-slot against the committed
// digests, and the per-slot leaders drawn from the sum of shares decide.
//
// Different providers may take different branches only if some provider
// sent different digests to different peers. A provider that took the
// digest path therefore forbids the fallback's commit for the round
// (proto.Peer.Forbid): the first one to reach it latches an unattributed
// protocol ⊥ at once. See DESIGN.md, "Digest-first bid agreement", for the
// safety argument, the rushing provider included.
package consensus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"distauction/internal/coin"
	"distauction/internal/prng"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/wire"
)

// Protocol steps of bid agreement. Steps 1–3 are the fallback's leader
// election (coin.Exchange; stepCommit is its commit); stepVector is the
// fallback's full-vector exchange; stepDigest is the digest gather every
// round starts with. An honest round with identical inputs sends only
// stepDigest.
const (
	stepCommit uint8 = 1
	stepVector uint8 = 4
	stepDigest uint8 = 5
)

// shareSize is the length of the leader-election share that opens every
// revealed value; the proposal digest follows it.
const shareSize = 8

// MaxSlots bounds the proposal vector length (defence against hostile
// allocations; real auctions have at most a few thousand bidders).
const MaxSlots = 1 << 20

// agreeSpans are the trace phases of the exchange's commit, echo and reveal
// steps when it runs as bid agreement's fallback.
var agreeSpans = []trace.Phase{trace.PhaseAgreeCommit, trace.PhaseAgreeEcho, trace.PhaseAgreeReveal}

// errSplitView is the verdict of a provider that took the digest path on a
// fallback commit for the same round: some provider showed different
// digests to different peers, and a mismatch between views never says who.
var errSplitView = &proto.AbortError{Code: proto.AbortProtocol, Culprit: wire.Broadcast,
	Reason: "a provider is on the fallback after all digests agreed here"}

// proposal is a provider's full input on the fallback path: the
// leader-election share plus the per-slot vector.
type proposal struct {
	share  uint64
	values [][]byte
}

// vectorDigest hashes a proposal vector: slot count, then each slot
// length-prefixed — the same canonical shape encodeProposal uses, so equal
// digests imply byte-identical vectors (slot counts included).
func vectorDigest(values [][]byte) [sha256.Size]byte {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(values)))
	h.Write(buf[:n])
	for _, v := range values {
		n = binary.PutUvarint(buf[:], uint64(len(v)))
		h.Write(buf[:n])
		h.Write(v)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func encodeProposal(p proposal) []byte {
	size := 16
	for _, v := range p.values {
		size += len(v) + 4
	}
	enc := wire.NewEncoder(size)
	enc.Uint64(p.share)
	enc.Uvarint(uint64(len(p.values)))
	for _, v := range p.values {
		enc.Bytes(v)
	}
	return enc.Buffer()
}

func decodeProposal(b []byte) (proposal, error) {
	d := wire.NewDecoder(b)
	var p proposal
	p.share = d.Uint64()
	n := d.Uvarint()
	if d.Err() == nil && n > MaxSlots {
		return proposal{}, fmt.Errorf("consensus: %d slots exceeds limit", n)
	}
	if d.Err() == nil && n > uint64(d.Remaining()) {
		return proposal{}, wire.ErrTruncated
	}
	// One arena for all slots: the views point into b, which the proto layer
	// may reclaim at EndRound, so the values are copied out — but as a single
	// flat allocation instead of one alloc+copy per slot.
	p.values = make([][]byte, n)
	arena := make([]byte, 0, d.Remaining())
	for i := range p.values {
		v := d.BytesView()
		if d.Err() != nil {
			break
		}
		off := len(arena)
		arena = append(arena, v...)
		p.values[i] = arena[off:len(arena):len(arena)]
	}
	if err := d.Finish(); err != nil {
		return proposal{}, fmt.Errorf("decode proposal: %w", err)
	}
	return p, nil
}

// Propose runs one vector consensus among all providers of peer. inputs is
// the local proposal: one value per slot; slot counts must match across
// providers (bid agreement guarantees this by construction — one slot per
// registered bidder).
//
// On success every honest provider returns the same output vector, where
// each slot is the proposal of the slot's leader. When all providers propose
// identical vectors the returned slices alias inputs (the protocol treats
// decided vectors as immutable). On any deviation or timeout the round is
// aborted (⊥).
func Propose(ctx context.Context, peer *proto.Peer, round uint64, instance uint32, inputs [][]byte) ([][]byte, error) {
	out, _, err := ProposeObserved(ctx, peer, round, instance, inputs, nil)
	return out, err
}

// ProposeObserved is Propose with a binding observer and the branch taken.
// onBound, when non-nil, runs exactly once if and when the agreement is
// bound at this provider: on the digest path when all m digests are held
// and equal, on the fallback at the exchange's before-reveal hook, when
// every provider's share and digest are committed and the commitment set
// is known consistent. From that point the decided vector is a fixed (if
// not yet known) function of values already sent: a later message can only
// open a commitment or abort the round, never steer the decision. The
// round engine opens the common coin's reveal gate there.
//
// unanimous reports that the digest path decided: every provider sent this
// provider a digest equal to its own. That gather is input validation's
// (Property 3) for the round — m digests of the same bytes, one from each
// provider — so the caller need not repeat it; after the fallback it must.
func ProposeObserved(ctx context.Context, peer *proto.Peer, round uint64, instance uint32, inputs [][]byte, onBound func()) (out [][]byte, unanimous bool, err error) {
	if len(inputs) > MaxSlots {
		return nil, false, fmt.Errorf("consensus: %d slots exceeds limit", len(inputs))
	}
	if err := peer.AbortErr(round); err != nil {
		return nil, false, err
	}
	digest := vectorDigest(inputs)
	providers := peer.Providers()
	tag := wire.Tag{Round: round, Block: wire.BlockBidAgree, Instance: instance, Step: stepDigest}

	span := trace.Begin()
	if err := peer.BroadcastProviders(tag, digest[:]); err != nil {
		return nil, false, peer.Fail(round, tag.String(), err)
	}
	digests, err := peer.GatherAppend(ctx, tag, providers, make([][]byte, 0, len(providers)))
	if err != nil {
		return nil, false, peer.Fail(round, tag.String(), err)
	}
	unanimous = true
	for i, d := range digests {
		if len(d) != sha256.Size {
			return nil, false, blame(peer, tag, providers[i], "sent a malformed digest")
		}
		unanimous = unanimous && [sha256.Size]byte(d) == digest
	}
	trace.Span(span, trace.PhaseAgreeDigest, round, peer.Lane(), peer.Self(), trace.NoPeer, int32(instance))
	if !unanimous {
		out, err := fallback(ctx, peer, tag, inputs, digest, digests, onBound)
		return out, false, err
	}

	// Every provider's digest equals the local one, so by collision
	// resistance every provider holds this exact vector: every slot is
	// unanimous and no leader draw could change the outcome. A provider
	// that saw a different digest from someone is on the fallback, which
	// must now end in ⊥ here the moment its commit lands.
	tag.Step = stepCommit
	if err := peer.Forbid(tag, errSplitView); err != nil {
		return nil, false, err
	}
	if onBound != nil {
		onBound()
	}
	return inputs, true, nil
}

// fallback is the digest-mismatch path: at least one slot is disputed (or a
// provider deviated). Providers run the leader election over share‖digest,
// holding each to the digest it broadcast (digests, in provider order),
// then exchange their full vectors, bind each to its committed share and
// digest, and let the per-slot leaders drawn from the seed decide.
func fallback(ctx context.Context, peer *proto.Peer, tag wire.Tag, inputs [][]byte, digest [sha256.Size]byte, digests [][]byte, onBound func()) ([][]byte, error) {
	providers := peer.Providers()
	seed, opened, err := coin.Exchange(ctx, peer, tag, digest[:], onBound, agreeSpans, nil)
	if err != nil {
		return nil, err
	}
	for i, o := range opened {
		if !bytes.Equal(o[shareSize:], digests[i]) {
			return nil, blame(peer, tag, providers[i], "committed a digest other than the one it broadcast")
		}
	}

	span := trace.Begin()
	tag.Step = stepVector
	own := binary.BigEndian.Uint64(opened[slices.Index(providers, peer.Self())])
	if err := peer.BroadcastProviders(tag, encodeProposal(proposal{share: own, values: inputs})); err != nil {
		return nil, peer.Fail(tag.Round, tag.String(), err)
	}
	vectors, err := peer.GatherAppend(ctx, tag, providers, nil)
	if err != nil {
		return nil, peer.Fail(tag.Round, tag.String(), err)
	}
	proposals := make([]proposal, len(providers))
	for i, id := range providers {
		prop, err := decodeProposal(vectors[i])
		share := binary.BigEndian.Uint64(opened[i])
		switch {
		case err != nil:
			return nil, blame(peer, tag, id, "%v", err)
		case prop.share != share:
			return nil, blame(peer, tag, id, "revealed share %d but sent vector for share %d", share, prop.share)
		case vectorDigest(prop.values) != [sha256.Size]byte(opened[i][shareSize:]):
			return nil, blame(peer, tag, id, "sent a vector that does not open its committed digest")
		case len(prop.values) != len(inputs):
			return nil, blame(peer, tag, id, "proposed %d slots, expected %d", len(prop.values), len(inputs))
		}
		proposals[i] = prop
	}
	trace.Span(span, trace.PhaseAgreeVector, tag.Round, peer.Lane(), peer.Self(), trace.NoPeer, int32(tag.Instance))

	// Decide every slot by its leader.
	base := prng.New(seed)
	out := make([][]byte, len(inputs))
	for i := range out {
		leader := base.Fork(uint64(i)).Intn(len(providers))
		out[i] = proposals[leader].values[i]
	}
	return out, nil
}

// blame aborts the round at tag's step as provider id's own message failing
// its shape, the digest it broadcast, or its committed share or digest: a
// protocol abort with id as culprit.
func blame(peer *proto.Peer, tag wire.Tag, id wire.NodeID, format string, args ...any) error {
	reason := fmt.Sprintf("provider %d ", id) + fmt.Sprintf(format, args...)
	return peer.Fail(tag.Round, tag.String(), &proto.AbortError{Code: proto.AbortProtocol, Culprit: id, Reason: reason})
}
