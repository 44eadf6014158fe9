// Package consensus implements the rational-consensus building block used by
// bid agreement (§4.1 of the paper, after Afek, Ginzberg, Landau Feibish and
// Sulamy, PODC 2014).
//
// The paper runs one binary consensus instance per bit of every bidder's bid
// stream, multiplexing instances by tagging messages with the bidder
// identifier and bit position. This implementation batches that whole
// ensemble into one *vector* consensus: each provider proposes the full
// vector of per-bidder values in a single commit, and a jointly-elected
// random leader decides each slot. The message complexity drops from
// O(bits·m²) to O(m²) per auction round while preserving the construction's
// two properties:
//
//  1. If all providers follow the protocol, they output a common vector in
//     which every slot equals some provider's proposal for that slot; if all
//     proposals for a slot agree, the output is that value (validity).
//  2. The per-slot leader is uniform and fixed before any proposal is
//     revealed (commit → echo → reveal, as in the common coin), so with
//     m > 2k a coalition can neither dictate a disputed slot nor learn
//     anything useful before committing — it can only force ⊥.
//
// The leader election is a common coin that also carries the proposal
// digest: one coin.Exchange in which every provider commits to its random
// 64-bit share followed by the SHA-256 digest of its proposal vector. The
// sum of shares seeds a deterministic PRNG that picks an independent leader
// per slot. This package adds only what is particular to agreement: the
// digest fast path and the vector fallback.
//
// # Digest fast path
//
// Because providers commit to the digest and not the vector, the exchange
// moves O(m²) fixed-size messages regardless of the vector size. After the
// reveal every provider holds every peer's digest: when all digests match
// its own — the common case, since honest providers enter bid agreement with
// identical bid vectors — the vectors are byte-identical by collision
// resistance, every slot is unanimous, and the local input IS the decided
// output; no vector ever crosses the network. Only when digests disagree do
// providers fall back to a full vector exchange (one extra step), verified
// slot-for-slot against the committed digests before the per-slot leaders
// decide. See DESIGN.md for the equivalence argument.
package consensus

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"distauction/internal/coin"
	"distauction/internal/prng"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/wire"
)

// stepVector is the digest-mismatch fallback: the full proposal vectors are
// exchanged and checked against the committed digests. The step is absent
// from honest unanimous rounds; steps 1–3 are the leader election's
// (coin.Exchange).
const stepVector uint8 = 4

// shareSize is the length of the leader-election share that opens every
// revealed value; the proposal digest follows it.
const shareSize = 8

// MaxSlots bounds the proposal vector length (defence against hostile
// allocations; real auctions have at most a few thousand bidders).
const MaxSlots = 1 << 20

// agreeSpans are the trace phases of the exchange's commit, echo and reveal
// steps when it runs as bid agreement.
var agreeSpans = []trace.Phase{trace.PhaseAgreeCommit, trace.PhaseAgreeEcho, trace.PhaseAgreeReveal}

// openedPool recycles the buffer of per-provider openings across calls. The
// openings are views into the round's buffered payloads and are cleared
// before pooling.
var openedPool = sync.Pool{New: func() any { return new([][]byte) }}

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
	return ProposeObserved(ctx, peer, round, instance, inputs, nil)
}

// ProposeObserved is Propose with a binding observer: onBound, when
// non-nil, is the exchange's before-reveal hook — called exactly once if and
// when the echo verifies, the moment every provider's proposal digest and
// leader share are committed and the commitment set is known consistent.
// From that point the consensus outcome is a fixed (if not yet known)
// function of the committed values: a reveal can only open its commitment or
// abort the round, never steer the decision. Callers use the hook to release
// work that must not influence the agreement but may safely overlap its
// reveal phase — the round engine opens the common coin's reveal gate here,
// taking the coin's last network phase off the round's critical path.
func ProposeObserved(ctx context.Context, peer *proto.Peer, round uint64, instance uint32, inputs [][]byte, onBound func()) ([][]byte, error) {
	if len(inputs) > MaxSlots {
		return nil, fmt.Errorf("consensus: %d slots exceeds limit", len(inputs))
	}
	digest := vectorDigest(inputs)
	tag := wire.Tag{Round: round, Block: wire.BlockBidAgree, Instance: instance}
	buf := openedPool.Get().(*[][]byte)
	defer func() {
		clear(*buf) // unpin the round's payload views
		*buf = (*buf)[:0]
		openedPool.Put(buf)
	}()
	seed, opened, err := coin.Exchange(ctx, peer, tag, digest[:], onBound, agreeSpans, (*buf)[:0])
	*buf = opened
	if err != nil {
		return nil, err
	}

	// Fast path: every digest equals the local one, so by collision
	// resistance every provider proposed this exact vector — every slot is
	// unanimous and the leader draw cannot change the outcome. All providers
	// see the same digest set (the commitments they open were cross-checked
	// in the echo), so they take or skip the fallback together.
	for _, o := range opened {
		if [sha256.Size]byte(o[shareSize:]) != digest {
			return fallback(ctx, peer, tag, inputs, opened, seed)
		}
	}
	return inputs, nil
}

// fallback is the digest-mismatch path: at least one slot is disputed (or a
// provider deviated). Providers exchange their full vectors, bind each to
// its committed share and digest in opened, and let the per-slot leaders
// drawn from seed decide.
func fallback(ctx context.Context, peer *proto.Peer, tag wire.Tag, inputs, opened [][]byte, seed uint64) ([][]byte, error) {
	span := trace.Begin()
	providers := peer.Providers()
	tag.Step = stepVector
	own := binary.BigEndian.Uint64(opened[slices.Index(providers, peer.Self())])
	if err := peer.BroadcastProviders(tag, encodeProposal(proposal{share: own, values: inputs})); err != nil {
		return nil, peer.FailCause(tag.Round, tag.String(), err)
	}
	vectors, err := peer.GatherAppend(ctx, tag, providers, nil)
	if err != nil {
		return nil, peer.FailCause(tag.Round, tag.String(), err)
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

// blame aborts the round at tag's step as provider id's own vector failing
// its committed share, digest or shape: a protocol abort with id as culprit.
func blame(peer *proto.Peer, tag wire.Tag, id wire.NodeID, format string, args ...any) error {
	reason := fmt.Sprintf("provider %d ", id) + fmt.Sprintf(format, args...)
	return peer.FailCause(tag.Round, tag.String(), &proto.AbortError{Code: proto.AbortProtocol, Culprit: id, Reason: reason})
}
