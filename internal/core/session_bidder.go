package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distauction/internal/auction"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// ErrOutcomeBot reports that the auction ended in ⊥ (aborted) or that
// providers disagreed on the result — which the external mechanism treats
// the same way (§3.2: the outcome is (x, ~p) only if all providers output
// that pair).
var ErrOutcomeBot = errors.New("core: outcome is ⊥")

// BidderSession is the user-side counterpart of Session: it submits bids
// for any round and streams the unanimous per-round outcomes over a channel
// instead of one blocking call per round. A ⊥ round arrives with Err
// matching ErrOutcomeBot; the stream then continues with the next round.
//
// Of the session options only WithStartRound, WithRoundLimit,
// WithOutcomeBuffer and WithRoundTimeout apply to bidders (the rest
// describe the provider side and are ignored); option validation errors
// still surface from Open. The round timeout (default 2 minutes, 0
// disables) bounds how long the session waits for each round's unanimous
// result, so one lost result message costs that round (reported as ⊥)
// instead of wedging the stream — outcomes are delivered strictly in round
// order, so an unbounded wait on round r would also withhold every round
// after it.
type BidderSession struct {
	peer     *proto.Peer
	settings sessionSettings
	outcomes chan RoundOutcome

	ctx       context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// OpenBidderSession starts a bidder session over conn addressing the given
// providers. The start round must match the providers' session start.
func OpenBidderSession(conn transport.Conn, providers []wire.NodeID, opts ...SessionOption) (*BidderSession, error) {
	settings := defaultSettings()
	for _, opt := range opts {
		opt(&settings)
	}
	if len(settings.errs) > 0 {
		return nil, errors.Join(settings.errs...)
	}
	if len(providers) == 0 {
		return nil, errors.Join(ErrConfig, errors.New("bidder session needs providers"))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &BidderSession{
		peer:     proto.NewPeer(conn, providers),
		settings: settings,
		outcomes: make(chan RoundOutcome, settings.outcomeBuffer),
		ctx:      ctx,
		cancel:   cancel,
	}
	s.wg.Add(1)
	go s.collect()
	return s, nil
}

// Self returns the bidder's node ID.
func (s *BidderSession) Self() wire.NodeID { return s.peer.Self() }

// Submit sends the same bid to every provider for the given round (the
// honest strategy; by Theorem 1 and the truthfulness of A it is
// utility-maximising to make it the true valuation). Bids for future rounds
// are accepted immediately — providers buffer them until the round's bid
// window opens — so a bidder can run ahead of the pipeline.
func (s *BidderSession) Submit(round uint64, bid auction.UserBid) error {
	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	raw := bid.Encode()
	var firstErr error
	for _, p := range s.peer.Providers() {
		if err := s.peer.Send(p, tag, raw); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SubmitRaw sends an arbitrary per-provider payload for a round — the
// deviation surface of §3.2 (different bids to different providers,
// garbage, or nothing). Deviation tests and examples use it; honest bidders
// use Submit.
func (s *BidderSession) SubmitRaw(round uint64, payloads map[wire.NodeID][]byte) error {
	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	var firstErr error
	for p, raw := range payloads {
		if err := s.peer.Send(p, tag, raw); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Outcomes streams one RoundOutcome per round in round order, starting at
// the configured start round. The channel closes when the round limit is
// reached or the session is closed.
func (s *BidderSession) Outcomes() <-chan RoundOutcome { return s.outcomes }

// Close stops the session and releases its network resources.
func (s *BidderSession) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		s.wg.Wait()
	})
	return s.peer.Close()
}

// collect awaits each round's unanimous outcome in order, emits it, and
// reclaims the round's buffered state. Each wait is bounded by the round
// timeout (head-of-line blocking protection: a round with a lost result is
// reported as ⊥ and the stream moves on).
func (s *BidderSession) collect() {
	defer s.wg.Done()
	defer close(s.outcomes)
	// One reusable timer bounds every round's wait (collect is the only
	// goroutine touching it); deriving a context per round would cost a
	// timer plus several allocations per round for the common case where
	// the result arrives long before the bound.
	var timer *time.Timer
	var timeoutC <-chan time.Time
	if s.settings.roundTimeout > 0 {
		timer = time.NewTimer(s.settings.roundTimeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	start, limit := s.settings.startRound, s.settings.roundLimit
	for r := start; limit == 0 || r < start+limit; r++ {
		if timer != nil && r != start {
			timer.Reset(s.settings.roundTimeout)
		}
		out, err := s.awaitOutcome(r, timeoutC)
		if s.ctx.Err() != nil {
			return
		}
		select {
		case s.outcomes <- RoundOutcome{Round: r, Outcome: out, Err: err}:
		case <-s.ctx.Done():
			return
		}
		s.peer.EndRound(r)
	}
}

// awaitOutcome gathers round's result from every provider, bounded by
// timeoutC (nil never fires). It returns the outcome only when all
// providers reported the same non-⊥ pair; otherwise ErrOutcomeBot.
func (s *BidderSession) awaitOutcome(round uint64, timeoutC <-chan time.Time) (auction.Outcome, error) {
	tag := wire.Tag{Round: round, Block: wire.BlockResult, Step: 1}
	var agreed []byte
	for i, p := range s.peer.Providers() {
		payload, err := s.peer.ReceiveTimeout(s.ctx, tag, p, timeoutC)
		if err != nil {
			return auction.Outcome{}, fmt.Errorf("%w: provider %d unreachable: %v", ErrOutcomeBot, p, err)
		}
		// View, not copy: the payload stays buffered in the peer until
		// EndRound, and raw/agreed are only read within this call.
		ok, raw, err := decodeResult(payload)
		if err != nil {
			return auction.Outcome{}, fmt.Errorf("%w: provider %d sent malformed result", ErrOutcomeBot, p)
		}
		if !ok {
			return auction.Outcome{}, fmt.Errorf("%w: provider %d reported abort", ErrOutcomeBot, p)
		}
		if i == 0 {
			agreed = raw
		} else if !bytes.Equal(agreed, raw) {
			return auction.Outcome{}, fmt.Errorf("%w: providers disagree on the outcome", ErrOutcomeBot)
		}
	}
	out, err := auction.DecodeOutcome(agreed)
	if err != nil {
		return auction.Outcome{}, fmt.Errorf("%w: undecodable outcome: %v", ErrOutcomeBot, err)
	}
	return out, nil
}

// encodeResult serialises the per-round result a provider (or the
// centralized auctioneer) reports to every bidder: an accepted flag plus the
// encoded outcome (empty for ⊥).
func encodeResult(ok bool, rawOutcome []byte) []byte {
	enc := wire.NewEncoder(2 + len(rawOutcome))
	enc.Bool(ok)
	enc.Bytes(rawOutcome)
	return enc.Buffer()
}

// decodeResult parses encodeResult's payload; raw is a view into payload.
func decodeResult(payload []byte) (ok bool, raw []byte, err error) {
	d := wire.NewDecoder(payload)
	ok = d.Bool()
	raw = d.BytesView()
	return ok, raw, d.Finish()
}
