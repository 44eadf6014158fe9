// Package coin implements the common coin building block (§4.2 of the
// paper, Property 4), after the commit-reveal scheme of Abraham, Dolev and
// Halpern (DISC 2013), and owns that scheme for every block that needs it.
//
// Exchange is the one commit → echo → reveal exchange: every provider
// commits to a random 64-bit share (followed by a payload the caller
// chooses), providers cross-check that everyone saw the same commitment set
// (echo), and only then reveal. The coin value is the sum of all shares mod
// 2^64: uniform as long as at least one provider outside the coalition draws
// its share at random, and fixed before any reveal, so a coalition of fewer
// than all providers cannot bias it — it can only force ⊥ by refusing to
// reveal or by mis-opening, which is exactly the resilience the paper
// requires (a coalition may only increase the probability of ⊥, never shift
// the distribution over non-⊥ outcomes). Toss is the exchange with no
// payload; bid agreement's fallback leader election (package consensus) is
// the same exchange carrying each provider's proposal digest.
//
// The paper samples the coin in [0,1] and transforms it to an arbitrary
// distribution Π. Here the coin yields a 64-bit seed; callers build a
// deterministic prng.SplitMix64 from it and apply whatever transform Π they
// need — the same trick, engineered so one toss can fuel many draws.
package coin

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"distauction/internal/commit"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/wire"
)

// Protocol steps of an exchange.
const (
	stepCommit uint8 = 1
	stepEcho   uint8 = 2
	stepReveal uint8 = 3
)

// shareSize is the committed share size in bytes (a uint64).
const shareSize = 8

// domain separates commitments per block, round and instance, so an opening
// made for one exchange never verifies in another.
func domain(tag wire.Tag) string {
	return fmt.Sprintf("%v/%d/%d", tag.Block, tag.Round, tag.Instance)
}

// Toss runs one common-coin instance among all providers of peer and
// returns the agreed 64-bit seed. On any deviation or timeout it aborts the
// round (⊥) and returns an error matching proto.ErrAborted.
func Toss(ctx context.Context, peer *proto.Peer, round uint64, instance uint32) (uint64, error) {
	seed, _, err := Exchange(ctx, peer, wire.Tag{Round: round, Block: wire.BlockCoin, Instance: instance}, nil, nil, nil, nil)
	return seed, err
}

// scratch is one exchange's working set: the gather buffer (views into the
// round's messages), the parsed commitments, the committed value and salt,
// and the echo preimage.
type scratch struct {
	gather  [][]byte
	commits []commit.Commitment
	value   []byte
	salt    [commit.SaltSize]byte
	set     []byte
}

// Exchange runs one commit → echo → reveal exchange among all providers of
// peer under tag's round, block and instance (tag.Step is ignored). Each
// provider commits to a fresh random share followed by payload — every
// provider's payload must have the same length — and the exchange returns
// the seed (the sum of all shares) and appends to opened, in provider order,
// every provider's revealed share‖payload: views into the round's messages,
// valid until the round ends.
//
// The commitment set is echoed through proto.Peer.Unanimous before anyone
// reveals, so a provider that equivocates its commitment across receivers
// forces ⊥ while every value is still hidden. beforeReveal, when non-nil,
// runs once between the echo and the reveal: from that point every value is
// committed and the set known consistent, so a reveal can only open its
// commitment or abort. It may block — the coin reservoir holds its reveal
// there — and the exchange aborts instead of revealing if ctx expired or
// the round aborted meanwhile. spans, when non-nil, names the trace phases
// of the commit, echo and reveal steps (bid agreement's); an exchange
// without it records none.
//
// A provider whose own commitment or opening is malformed or does not
// verify aborts the round as proto.AbortProtocol with that provider as
// culprit; an echo mismatch aborts with no culprit; a failed gather keeps its
// typed cause.
func Exchange(ctx context.Context, peer *proto.Peer, tag wire.Tag, payload []byte,
	beforeReveal func(), spans []trace.Phase, opened [][]byte) (uint64, [][]byte, error) {
	return exchange(ctx, peer, tag, payload, beforeReveal, spans, opened, time.Time{})
}

// exchange is Exchange whose commit, when it is the round's first message
// to the providers, retries a provider that has not attached yet until
// attachBy (proto.Peer.BroadcastFirst; the zero time sends once). Later
// steps need no retry: they go out only once every provider's commit has
// arrived, so every provider has attached.
func exchange(ctx context.Context, peer *proto.Peer, tag wire.Tag, payload []byte,
	beforeReveal func(), spans []trace.Phase, opened [][]byte, attachBy time.Time) (uint64, [][]byte, error) {

	round := tag.Round
	if err := peer.AbortErr(round); err != nil {
		return 0, opened, err
	}
	providers := peer.Providers()
	dom := domain(tag)
	var x scratch

	x.value = append(make([]byte, shareSize, shareSize+len(payload)), payload...)
	_, _ = rand.Read(x.value[:shareSize]) // never fails since Go 1.24
	_, _ = rand.Read(x.salt[:])
	// The opening's salt and value alias the scratch; both are consumed —
	// hashed, then copied by EncodeOpening — before this call returns.
	com, op := commit.NewWithSalt(dom, peer.Self(), x.salt[:], x.value)

	// Commit.
	span := trace.Begin()
	tag.Step = stepCommit
	if err := peer.BroadcastFirst(ctx, tag, com[:], attachBy); err != nil {
		return 0, opened, fail(peer, tag, err)
	}
	var err error
	if x.gather, err = peer.GatherAppend(ctx, tag, providers, x.gather[:0]); err != nil {
		return 0, opened, fail(peer, tag, err)
	}
	endSpan(span, spans, 0, peer, tag)
	x.commits, x.set = x.commits[:0], x.set[:0]
	for i, c := range x.gather {
		if len(c) != commit.Size {
			return 0, opened, blame(peer, tag, providers[i], "sent a malformed commitment")
		}
		x.commits = append(x.commits, commit.Commitment(c))
		x.set = append(binary.BigEndian.AppendUint32(x.set, uint32(providers[i])), c...)
	}

	// Echo the (provider, commitment) set, in provider order.
	span = trace.Begin()
	echo := sha256.Sum256(x.set)
	tag.Step = stepEcho
	if err := peer.BroadcastProviders(tag, echo[:]); err != nil {
		return 0, opened, fail(peer, tag, err)
	}
	if _, x.gather, err = peer.Unanimous(ctx, tag, providers, x.gather); err != nil {
		return 0, opened, err
	}
	endSpan(span, spans, 1, peer, tag)
	if beforeReveal != nil {
		beforeReveal()
		if ctx.Err() != nil {
			return 0, opened, peer.Fail(round, "before reveal", context.Cause(ctx))
		}
		if err := peer.AbortErr(round); err != nil {
			return 0, opened, err
		}
	}

	// Reveal, and verify every opening against its echoed commitment.
	span = trace.Begin()
	tag.Step = stepReveal
	if err := peer.BroadcastProviders(tag, commit.EncodeOpening(op)); err != nil {
		return 0, opened, fail(peer, tag, err)
	}
	if x.gather, err = peer.GatherAppend(ctx, tag, providers, x.gather[:0]); err != nil {
		return 0, opened, fail(peer, tag, err)
	}
	var seed uint64
	for i, id := range providers {
		o, err := commit.DecodeOpeningView(x.gather[i])
		switch {
		case err != nil:
			return 0, opened, blame(peer, tag, id, "sent a malformed opening")
		case commit.Verify(dom, id, x.commits[i], o) != nil:
			return 0, opened, blame(peer, tag, id, "mis-opened its commitment")
		case len(o.Value) != len(x.value):
			return 0, opened, blame(peer, tag, id, "opened %d bytes, want %d", len(o.Value), len(x.value))
		}
		seed += binary.BigEndian.Uint64(o.Value)
		opened = append(opened, o.Value)
	}
	endSpan(span, spans, 2, peer, tag)
	return seed, opened, nil
}

// endSpan closes step i's span when the caller asked for spans.
func endSpan(start time.Time, spans []trace.Phase, i int, peer *proto.Peer, tag wire.Tag) {
	if spans != nil {
		trace.Span(start, spans[i], tag.Round, peer.Lane(), peer.Self(), trace.NoPeer, int32(tag.Instance))
	}
}

// fail aborts the exchange's round at tag's step with the typed cause err
// (the formatting stays out of Exchange's frame, which sits under every
// delivery its sends trigger).
func fail(peer *proto.Peer, tag wire.Tag, err error) error {
	return peer.Fail(tag.Round, tag.String(), err)
}

// blame is fail for provider id's own message failing its commitment or its
// shape — the one failure an exchange can pin on a single provider.
func blame(peer *proto.Peer, tag wire.Tag, id wire.NodeID, format string, args ...any) error {
	reason := fmt.Sprintf("provider %d ", id) + fmt.Sprintf(format, args...)
	return fail(peer, tag, &proto.AbortError{Code: proto.AbortProtocol, Culprit: id, Reason: reason})
}
