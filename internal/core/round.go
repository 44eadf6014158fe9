package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"distauction/internal/allocator"
	"distauction/internal/auction"
	"distauction/internal/coin"
	"distauction/internal/consensus"
	"distauction/internal/proto"
	"distauction/internal/taskgraph"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// MaxRawBidSize bounds a submitted bid's encoding. Anything larger is
// treated as no submission (the neutral bid takes its place).
const MaxRawBidSize = 64

// Config describes one auction deployment shared by all participants.
// Sessions build it from their options; NewCentralized takes it directly.
type Config struct {
	// Providers are the provider nodes that jointly simulate the auctioneer
	// (the m of the paper).
	Providers []wire.NodeID
	// Users are the user bidder nodes (the n of the paper), slot-aligned:
	// Users[i] is consensus slot i.
	Users []wire.NodeID
	// K is the coalition bound. The rational-consensus construction
	// requires m > 2K (§6).
	K int
	// Mechanism is the allocation algorithm A.
	Mechanism Mechanism
	// BidWindow is how long providers wait for bid submissions before
	// substituting neutral bids. Zero means 2 s.
	BidWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.BidWindow == 0 {
		c.BidWindow = 2 * time.Second
	}
	return c
}

// Validate checks the deployment facts.
func (c Config) Validate() error {
	m := len(c.Providers)
	if m == 0 {
		return fmt.Errorf("%w: no providers", ErrConfig)
	}
	if c.K < 0 {
		return fmt.Errorf("%w: negative k", ErrConfig)
	}
	if m <= 2*c.K {
		return fmt.Errorf("%w: m=%d providers cannot tolerate coalitions of k=%d (need m > 2k)", ErrConfig, m, c.K)
	}
	if c.Mechanism == nil {
		return fmt.Errorf("%w: no mechanism", ErrConfig)
	}
	if c.BidWindow < 0 {
		return fmt.Errorf("%w: negative bid window", ErrConfig)
	}
	seen := map[wire.NodeID]bool{}
	for _, id := range append(append([]wire.NodeID{}, c.Providers...), c.Users...) {
		if seen[id] {
			return fmt.Errorf("%w: duplicate node id %d", ErrConfig, id)
		}
		seen[id] = true
	}
	return nil
}

// slotCount returns the number of bid-agreement slots: one per user, plus
// one per provider when the mechanism is double-sided.
func (c Config) slotCount() int {
	n := len(c.Users)
	if c.Mechanism.DoubleSided() {
		n += len(c.Providers)
	}
	return n
}

// broadcastOwnBid performs phase 0 of a round: a provider that bids in a
// double-sided mechanism broadcasts its own bid like any bidder. nil means
// the neutral bid; single-sided mechanisms skip the phase entirely.
//
// Peers of a deployment open their sessions concurrently, and no transport
// can route to a node that has not attached yet — so a failed send is
// retried within the bid window (identical re-sends are absorbed by the
// receivers) before the round is declared dead.
func (s *Session) broadcastOwnBid(ctx context.Context, round uint64, ownBid *auction.ProviderBid) error {
	if !s.cfg.Mechanism.DoubleSided() {
		return nil
	}
	bid := auction.NeutralProviderBid()
	if ownBid != nil {
		bid = *ownBid
	}
	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	deadline := time.Now().Add(s.cfg.BidWindow)
	// Capped jittered exponential backoff, one reusable timer, created only
	// when the first attempt fails — a fleet of providers retrying into the
	// same late attacher must not hammer it in lockstep.
	var bo *transport.Backoff
	for {
		err := s.peer.BroadcastProviders(tag, bid.Encode())
		if err == nil {
			if bo != nil {
				bo.Stop()
			}
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			if bo != nil {
				bo.Stop()
			}
			return s.peer.Fail(round, "broadcast own bid", err)
		}
		if bo == nil {
			bo = transport.NewBackoff(5*time.Millisecond, 100*time.Millisecond,
				int64(round)^time.Now().UnixNano())
		}
		// A cancelled wait falls through to one final attempt; the ctx check
		// above then reports the failure.
		_ = bo.Wait(ctx.Done())
	}
}

// openRound runs phases 0–1 of a round: own-bid broadcast, then bid
// collection over the bid window.
func (s *Session) openRound(ctx context.Context, round uint64, ownBid *auction.ProviderBid) ([][]byte, error) {
	if err := s.broadcastOwnBid(ctx, round, ownBid); err != nil {
		return nil, err
	}
	return s.collectBids(ctx, round)
}

// expiredC is a closed timer channel: ReceiveTimeout with it returns any
// buffered message immediately and DeadlineExceeded otherwise.
var expiredC = func() <-chan time.Time {
	ch := make(chan time.Time)
	close(ch)
	return ch
}()

// collectBids gathers the raw submission for every slot (phase 1),
// substituting nil (→ neutral) when the bid window expires first. The window
// is enforced with the session's reusable timer: already-buffered submissions
// are still accepted after expiry (same as the former context deadline,
// which Receive also checked only after the buffer).
func (s *Session) collectBids(ctx context.Context, round uint64) ([][]byte, error) {
	cfg := s.cfg
	if s.bidTimer == nil {
		s.bidTimer = time.NewTimer(cfg.BidWindow)
	} else {
		s.bidTimer.Reset(cfg.BidWindow)
	}
	window := s.bidTimer.C
	expired := false

	slots := s.getSlots()
	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	recvSlot := func(slot int, from wire.NodeID) error {
		raw, err := s.peer.ReceiveTimeout(ctx, tag, from, window)
		switch {
		case err == nil:
			if len(raw) <= MaxRawBidSize {
				slots[slot] = raw
			}
		case errors.Is(err, context.DeadlineExceeded):
			// No submission: neutral. The timer has fired (its channel is
			// consumed); later slots still drain buffered submissions via the
			// always-ready expiry channel.
			if !expired {
				expired = true
				window = expiredC
			}
		case errors.Is(err, proto.ErrAborted):
			return err
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Equivocating bidders may have poisoned the round.
			if abortErr := s.peer.AbortErr(round); abortErr != nil {
				return abortErr
			}
			return err
		}
		return nil
	}
	for i, bidder := range cfg.Users {
		if err := recvSlot(i, bidder); err != nil {
			return nil, err
		}
	}
	if cfg.Mechanism.DoubleSided() {
		for j, prov := range cfg.Providers {
			if err := recvSlot(len(cfg.Users)+j, prov); err != nil {
				return nil, err
			}
		}
	}
	return slots, nil
}

// getSlots pops a recycled slot slice for collectBids (or allocates the
// first pipeline-depth-many); putSlots returns it once the round is done
// with the collected inputs.
func (s *Session) getSlots() [][]byte {
	n := s.cfg.slotCount()
	var slots [][]byte
	s.mu.Lock()
	if k := len(s.slotsFree); k > 0 {
		slots = s.slotsFree[k-1]
		s.slotsFree[k-1] = nil
		s.slotsFree = s.slotsFree[:k-1]
	}
	s.mu.Unlock()
	if cap(slots) < n {
		return make([][]byte, n)
	}
	return slots[:n]
}

func (s *Session) putSlots(slots [][]byte) {
	if slots == nil {
		return
	}
	clear(slots) // drop the payload views before recycling
	s.mu.Lock()
	if len(s.slotsFree) < 8 {
		s.slotsFree = append(s.slotsFree, slots)
	}
	s.mu.Unlock()
}

// getBids pops a recycled bid vector sized for the deployment. Every live
// slot is overwritten by finishRound's sanitize pass, so no cross-round
// values survive a pool cycle.
func (s *Session) getBids() *auction.BidVector {
	bv, _ := s.bidsPool.Get().(*auction.BidVector)
	if bv == nil {
		bv = &auction.BidVector{}
	}
	n := len(s.cfg.Users)
	if cap(bv.Users) < n {
		bv.Users = make([]auction.UserBid, n)
	} else {
		bv.Users = bv.Users[:n]
	}
	if s.cfg.Mechanism.DoubleSided() {
		m := len(s.cfg.Providers)
		if cap(bv.Providers) < m {
			bv.Providers = make([]auction.ProviderBid, m)
		} else {
			bv.Providers = bv.Providers[:m]
		}
	} else {
		bv.Providers = nil
	}
	return bv
}

// putBids recycles a bid vector once its round's allocator run has fully
// joined — nothing may retain the vector (or its slices) past that point.
func (s *Session) putBids(bv *auction.BidVector) { s.bidsPool.Put(bv) }

// finishRound runs phases 2–5 on the collected inputs: bid agreement, the
// allocator (validate + task graph), and outcome delivery to bidders
// (Figure 1). It owns inputs from here on: the slice returns to the slot
// pool when the round finishes, on every path.
func (s *Session) finishRound(ctx context.Context, round uint64, inputs [][]byte) (auction.Outcome, error) {
	cfg := s.cfg
	defer s.putSlots(inputs)

	// Coin prefetch: start the commit/echo phases of every draw the graph
	// declares now so they overlap bid agreement; the reveals stay gated
	// until agreement is bound, so no provider can know a seed while the
	// agreed vector is still undecided.
	var coinSrc taskgraph.CoinSource
	var onBound func()
	if len(s.coinPlan) > 0 {
		coins := coin.NewReservoir(s.peer, round, true)
		coins.Prefetch(ctx, s.coinPlan...)
		// Close joins every toss before the round can be reclaimed; on
		// abort paths it also opens the gate so blocked tosses unwind.
		defer coins.Close()
		coinSrc, onBound = coins, coins.Release
	}

	// Phase 2: bid agreement (§4.1, Property 1) — one batched vector
	// consensus per round, instance 0, one slot per registered bidder (nil
	// for a missing submission). Every provider leaves with the same
	// vector (eventual agreement), and a bidder that submitted the same
	// bytes to every provider gets exactly those bytes in it whichever slot
	// leader is drawn (validity). Invalid or missing bids survive agreement
	// as raw bytes and become neutral bids in phase 3, the paper's b*ᵢ
	// substitution.
	//
	// The coin's reveal gate opens the moment the agreement is *bound*
	// (proposals and leader shares all committed and echo-verified): from
	// there reveals can only open commitments or abort, so the coin's last
	// phase overlaps agreement's instead of following it.
	agreed, err := consensus.ProposeObserved(ctx, s.peer, round, 0, inputs, onBound)
	if err != nil {
		return s.deliverAbort(round, err)
	}

	// Phase 3: decode the agreed vector, substituting neutral bids for
	// anything invalid (identical at every provider: the inputs agree). The
	// vector is pooled: it feeds the round's allocator run and returns when
	// that run has fully joined.
	bids := s.getBids()
	defer s.putBids(bids)
	for i := range cfg.Users {
		bids.Users[i] = auction.SanitizeUserBid(agreed[i])
	}
	if cfg.Mechanism.DoubleSided() {
		for j := range cfg.Providers {
			bids.Providers[j] = auction.SanitizeProviderBid(agreed[len(cfg.Users)+j])
		}
	}

	// Phase 4: the allocator (Property 2) — input validation, then the
	// task-graph simulation of A on the session's executor.
	rawOutcome, err := allocator.Run(ctx, s.peer, round, bids.Encode(), s.exec, bids, coinSrc)
	if err != nil {
		return s.deliverAbort(round, err)
	}
	outcome, err := auction.DecodeOutcome(rawOutcome)
	if err != nil {
		return s.deliverAbort(round, s.peer.Fail(round, "decode outcome",
			&proto.AbortError{Code: proto.AbortProtocol, Culprit: wire.Broadcast, Reason: err.Error()}))
	}

	// Phase 5: report to bidders.
	s.deliverResult(round, true, rawOutcome)
	return outcome, nil
}

// deliverAbort reports ⊥ to all bidders and returns the abort error.
func (s *Session) deliverAbort(round uint64, err error) (auction.Outcome, error) {
	s.deliverResult(round, false, nil)
	return auction.Outcome{}, err
}

// deliverResult sends the round result (ok + outcome, or ⊥) to every user,
// at most once per round: a second delivery attempt — e.g. Close declaring
// ⊥ for a round whose worker just delivered the accepted outcome — is a
// no-op, so bidders never see two conflicting payloads under the result tag
// (which their peers would rightly flag as equivocation).
func (s *Session) deliverResult(round uint64, ok bool, rawOutcome []byte) {
	s.mu.Lock()
	// A round is only ended after its result was emitted, so rounds at or
	// below the end watermark count as delivered even though their map
	// entry has been reclaimed — otherwise Close's stale in-flight snapshot
	// could re-deliver ⊥ for a round that just completed and was ended.
	if round <= s.ended || s.delivered[round] {
		s.mu.Unlock()
		return
	}
	s.delivered[round] = true
	s.mu.Unlock()
	payload := encodeResult(ok, rawOutcome)
	tag := wire.Tag{Round: round, Block: wire.BlockResult, Step: 1}
	for _, u := range s.cfg.Users {
		// Best effort: a dead bidder must not wedge the provider.
		_ = s.peer.Send(u, tag, payload)
	}
}

// endRound reclaims the session's and the peer's per-round state for all
// rounds <= round.
func (s *Session) endRound(round uint64) {
	s.mu.Lock()
	if round > s.ended {
		s.ended = round
	}
	for r := range s.delivered {
		if r <= round {
			delete(s.delivered, r)
		}
	}
	s.mu.Unlock()
	s.peer.EndRound(round)
}
