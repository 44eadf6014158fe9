package core

import (
	"errors"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/testleak"
	"distauction/internal/wire"
)

// A task's outbound transfers leave as soon as the task has computed,
// beside its digest, not after its digest gather: the receivers' check that
// every member of the producer group sent the same bytes is what makes a
// transfer safe. These tests pin both sides of that rule on the standard
// auction, whose payment shares are the graph's only transfers: the shares
// go out while the allocation digest is still open, and the round still
// ends in ⊥ when that digest never confirms; after an agreement fallback
// no transfer leaves before input validation's publish gate passes.

// Protocol steps and the task read off the tap (the constants are the
// taskgraph, consensus, allocator and datatransfer packages' own).
const (
	taskDigest    uint8 = 1
	agreeCommit   uint8 = 1
	validateStep  uint8 = 1
	transferValue uint8 = 1
	allocTaskID         = 1 // the standard auction's "allocate" task
)

// One provider withholds its allocation digest from every peer. The
// payment groups still compute from their own allocation and send their
// shares at once: each share reaches all six providers outside its group,
// from both of its group's members. No honest provider's allocation digest
// gather completes, so every honest provider's round is ⊥ at its timeout,
// and no bidder receives a result.
func TestWithheldAllocationDigestStillBot(t *testing.T) {
	testleak.Check(t, func() {
		const m, k, timeout = 8, 1, 500 * time.Millisecond
		const withholder = wire.NodeID(m)
		r := newCoinRig(t, m, 3, 1)
		defer r.close()
		r.opts = append(r.opts, WithRoundTimeout(timeout))
		r.withhold = func(from wire.NodeID, env wire.Envelope) bool {
			return from == withholder && env.Tag.Block == wire.BlockTask &&
				env.Tag.Instance == allocTaskID && env.Tag.Step == taskDigest
		}
		for i := range r.providers {
			r.open(i)
		}
		r.submit(1)

		for i, s := range r.sessions {
			select {
			case out := <-s.Outcomes():
				if r.providers[i] != withholder && (out.Round != 1 || out.Err == nil) {
					t.Errorf("provider %d: round 1 %+v, want ⊥", r.providers[i], out)
				}
			case <-time.After(timeout + 10*time.Second):
				t.Fatalf("provider %d: round 1 still open, round timeout %v", r.providers[i], timeout)
			}
		}
		for i, b := range r.bidders {
			out := <-b.Outcomes()
			if out.Round != 1 || !errors.Is(out.Err, ErrOutcomeBot) {
				t.Errorf("bidder %d: round 1 %+v, want ⊥", i, out)
			}
		}

		// Per transfer instance: who sent it, and who received it from whom.
		senders := map[uint32]map[wire.NodeID]bool{}
		receivers := map[uint32]map[wire.NodeID]bool{}
		pairs := map[uint32]map[[2]wire.NodeID]bool{}
		for _, e := range r.log.snapshot() {
			if e.sent || !inRound(e, 1, wire.BlockTransfer, transferValue) {
				continue
			}
			inst := e.env.Tag.Instance
			if senders[inst] == nil {
				senders[inst] = map[wire.NodeID]bool{}
				receivers[inst] = map[wire.NodeID]bool{}
				pairs[inst] = map[[2]wire.NodeID]bool{}
			}
			senders[inst][e.env.From] = true
			receivers[inst][e.at] = true
			pairs[inst][[2]wire.NodeID{e.env.From, e.at}] = true
		}
		if groups := m / (k + 1); len(senders) != groups {
			t.Fatalf("%d payment shares transferred, want %d", len(senders), groups)
		}
		for inst := range senders {
			if len(senders[inst]) != k+1 || len(receivers[inst]) != m-(k+1) || len(pairs[inst]) != (k+1)*(m-(k+1)) {
				t.Errorf("share %d: %d senders, %d receivers, %d deliveries; want %d, %d, %d",
					inst, len(senders[inst]), len(receivers[inst]), len(pairs[inst]), k+1, m-(k+1), (k+1)*(m-(k+1)))
			}
			for id := range senders[inst] {
				if receivers[inst][id] {
					t.Errorf("share %d: provider %d both sent and received it", inst, id)
				}
			}
		}
	})
}

// A bidder that sends different bids to different providers sends every
// provider to agreement's fallback, and with it to input validation.
// Provider 1's validation digests leave 50 ms late, so every provider's
// publish gate is held well past its payment share's compute. Still no
// provider sends a transfer before it holds every other provider's
// validation digest, and the round completes with one outcome everywhere.
func TestFallbackTransfersWaitForValidation(t *testing.T) {
	testleak.Check(t, func() {
		const m = 4
		r := newCoinRig(t, m, 3, 1)
		defer r.close()
		r.delay = func(from wire.NodeID, env wire.Envelope) time.Duration {
			if from == 1 && env.Tag.Block == wire.BlockValidate {
				return 50 * time.Millisecond
			}
			return 0
		}
		for i := range r.providers {
			r.open(i)
		}
		bidA := auction.UserBid{Value: fixed.MustInt(10), Demand: fixed.One}.Encode()
		bidB := auction.UserBid{Value: fixed.MustInt(3), Demand: fixed.One}.Encode()
		if err := r.bidders[0].SubmitRaw(1, map[wire.NodeID][]byte{1: bidA, 2: bidB, 3: bidA, 4: bidB}); err != nil {
			t.Fatal(err)
		}
		for i, b := range r.bidders[1:] {
			if err := b.Submit(1, auction.UserBid{Value: fixed.MustInt(int64(9 - i)), Demand: fixed.One}); err != nil {
				t.Fatal(err)
			}
		}
		r.outcomes(1)

		events := r.log.snapshot()
		if first(events, func(e tapEvent) bool { return e.sent && inRound(e, 1, wire.BlockBidAgree, agreeCommit) }) < 0 {
			t.Fatal("no provider took agreement's fallback")
		}
		for _, id := range r.providers {
			send := first(events, func(e tapEvent) bool { return e.sent && e.at == id && inRound(e, 1, wire.BlockTransfer, transferValue) })
			if send < 0 {
				t.Fatalf("provider %d sent no payment share", id)
			}
			held := map[wire.NodeID]bool{}
			for _, e := range events[:send] {
				if !e.sent && e.at == id && inRound(e, 1, wire.BlockValidate, validateStep) {
					held[e.env.From] = true
				}
			}
			if len(held) != m-1 {
				t.Errorf("provider %d sent a transfer (event %d) holding %d of %d validation digests",
					id, send, len(held), m-1)
			}
		}
	})
}
