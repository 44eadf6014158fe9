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
// the neutral bid; single-sided mechanisms skip the phase entirely. It is
// the round's first message to the providers, so a send to a provider that
// has not attached yet is retried within the bid window
// (proto.Peer.BroadcastFirst) before the round is declared dead.
func (s *Session) broadcastOwnBid(ctx context.Context, round uint64, ownBid *auction.ProviderBid, attachBy time.Time) error {
	if !s.cfg.Mechanism.DoubleSided() {
		return nil
	}
	bid := auction.NeutralProviderBid()
	if ownBid != nil {
		bid = *ownBid
	}
	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	if err := s.peer.BroadcastFirst(ctx, tag, bid.Encode(), attachBy); err != nil {
		return s.peer.Fail(round, "broadcast own bid", err)
	}
	return nil
}

// roundCoin is a round's coin, started by openRound and closed when the
// round ends: the gated reservoir every coin draw of the round's graph goes
// through, declared or on demand (nil when the graph draws no coin), and
// the cancel of the context its tosses run under.
type roundCoin struct {
	res    *coin.Reservoir
	cancel context.CancelFunc
}

// close joins the round's tosses and releases their context. It opens the
// reveal gate (Reservoir.Close), so the round must be bound or its abort
// latched first.
func (c roundCoin) close() {
	if c.res != nil {
		c.res.Close()
		c.cancel()
	}
}

// openRound runs phases 0–1 of a round: own-bid broadcast, then bid
// collection over the bid window. It starts the round's coin first (when
// the mechanism's graph uses the coin at all), so every declared toss's
// commit and echo run during bid collection: they hide every share, and
// the reservoir's reveal gate opens only at agreement's binding point, in
// finishRound; an on-demand draw starts its toss from the task. The
// returned coin belongs to the round; on an error openRound has latched
// the round's abort and closed it already.
func (s *Session) openRound(ctx context.Context, round uint64, ownBid *auction.ProviderBid) ([][]byte, roundCoin, error) {
	attachBy := time.Now().Add(s.cfg.BidWindow)
	var coins roundCoin
	if s.usesCoin {
		var coinCtx context.Context
		coinCtx, coins.cancel = context.WithCancel(ctx)
		coins.res = coin.NewReservoir(s.peer, round, attachBy)
		coins.res.Prefetch(coinCtx, s.coinPlan...)
	}
	err := s.broadcastOwnBid(ctx, round, ownBid, attachBy)
	var inputs [][]byte
	if err == nil {
		inputs, err = s.collectBids(ctx, round)
	}
	if err != nil {
		return nil, roundCoin{}, s.abortOpen(round, err, coins)
	}
	return inputs, coins, nil
}

// abortOpen ends a round that never reached a worker: it latches the
// round's abort (delivering ⊥ to bidders) and only then closes the round's
// coin. The order is the safety of the gated coin: Close opens the reveal
// gate, and a toss that passes it on an aborted round aborts instead of
// revealing.
func (s *Session) abortOpen(round uint64, cause error, coins roundCoin) error {
	err := s.failRound(round, cause)
	coins.close()
	return err
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
// (Figure 1). It owns inputs and coins, the round's coin from openRound,
// from here on: the slice returns to the slot pool and the coin is closed
// when the round finishes, on every path — an abort path latches the
// round's abort first (deliverAbort), so Close's opening of the reveal gate
// can never let a reveal out before the binding point.
func (s *Session) finishRound(ctx context.Context, round uint64, inputs [][]byte, coins roundCoin) (auction.Outcome, error) {
	cfg := s.cfg
	defer s.putSlots(inputs)

	var coinSrc taskgraph.CoinSource
	var onBound func()
	if coins.res != nil {
		// The round's context ends its tosses too, so a toss that can never
		// finish (a reveal withheld for a draw no task consumes) holds the
		// round's Close only until the round timeout. Ending a toss's
		// context never lets a reveal out: the toss aborts the round
		// instead. Deferred in this order, the round's coin is closed —
		// every toss joined — before the timeout's hook is removed.
		defer context.AfterFunc(ctx, coins.cancel)()
		defer coins.close()
		coinSrc, onBound = coins.res, coins.res.Release
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
	// The coin's reveal gate opens the moment the agreement is *bound*: all
	// m digests held and equal on the digest path, every proposal and leader
	// share committed and echo-verified on the fallback. From there a reveal
	// can only open a commitment or abort, never steer the decided vector.
	agreed, unanimous, err := consensus.ProposeObserved(ctx, s.peer, round, 0, inputs, onBound)
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

	// Phase 4: the allocator (Property 2) — the task-graph simulation of A
	// on the session's executor, and input validation unless the agreement's
	// digest path already compared every provider's vector.
	var input []byte
	if !unanimous {
		input = bids.Encode()
	}
	rawOutcome, err := allocator.Run(ctx, s.peer, round, input, s.exec, bids, coinSrc)
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

// deliverAbort latches the round's abort, reports ⊥ to all bidders and
// returns the abort.
func (s *Session) deliverAbort(round uint64, err error) (auction.Outcome, error) {
	return auction.Outcome{}, s.failRound(round, err)
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
