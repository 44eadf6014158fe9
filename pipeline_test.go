package distauction_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"distauction"
	"distauction/internal/deviation"
	"distauction/internal/proto"
	"distauction/internal/wire"
)

// deepDeployment opens a 3-provider / 2-user double-auction deployment with
// a 4-deep round pipeline. wrap, when non-nil, decorates provider conns
// (deviation injection).
func deepDeployment(t *testing.T, rounds uint64, wrap func(i int, conn distauction.Conn) distauction.Conn) ([]*distauction.Session, []*distauction.BidderSession, distauction.Topology) {
	t.Helper()
	hub := distauction.NewHub(distauction.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	top := distauction.Topology{
		Providers: []distauction.NodeID{1, 2, 3},
		Users:     []distauction.NodeID{100, 101},
	}
	sessions := make([]*distauction.Session, 0, len(top.Providers))
	for i, id := range top.Providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			conn = wrap(i, conn)
		}
		s, err := distauction.Open(conn, top,
			distauction.WithK(1),
			distauction.WithMechanismName("double"),
			distauction.WithBidWindow(2*time.Second),
			distauction.WithProviderBid(distauction.ProviderBid{
				Cost: distauction.Fx(float64(i + 1)), Capacity: distauction.Fx(5),
			}),
			distauction.WithRoundLimit(rounds),
			distauction.WithMaxConcurrentRounds(4),
			distauction.WithOutcomeBuffer(int(rounds)),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		sessions = append(sessions, s)
	}
	bidders := make([]*distauction.BidderSession, 0, len(top.Users))
	for _, id := range top.Users {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := distauction.OpenBidder(conn, top.Providers,
			distauction.WithRoundLimit(rounds),
			distauction.WithOutcomeBuffer(int(rounds)),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		bidders = append(bidders, b)
	}
	return sessions, bidders, top
}

// TestDeepPipelineBidderEquivocationFallsBack drives a 4-deep pipeline in
// which one bidder equivocates its bid to the providers every round —
// different (valid) bids to different providers — so the providers enter
// bid agreement with *different* vectors and every round takes the
// digest-mismatch fallback. The fallback must be invisible to honest
// participants: every round completes with a unanimous non-⊥ outcome (the
// per-slot leader decides which of the equivocated bids wins).
func TestDeepPipelineBidderEquivocationFallsBack(t *testing.T) {
	const rounds = 30
	sessions, bidders, top := deepDeployment(t, rounds, nil)

	for r := uint64(1); r <= rounds; r++ {
		// Bidder 0: a different bid per provider under the same round tag.
		payloads := make(map[distauction.NodeID][]byte, len(top.Providers))
		for i, p := range top.Providers {
			bid := distauction.UserBid{
				Value:  distauction.Fx(float64(5 + i)),
				Demand: distauction.Fx(1),
			}
			payloads[p] = bid.Encode()
		}
		if err := bidders[0].SubmitRaw(r, payloads); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		// Bidder 1 is honest.
		if err := bidders[1].Submit(r, distauction.UserBid{
			Value: distauction.Fx(9), Demand: distauction.Fx(1),
		}); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}

	for bi, b := range bidders {
		want := uint64(1)
		deadline := time.After(2 * time.Minute)
		for want <= rounds {
			select {
			case out, ok := <-b.Outcomes():
				if !ok {
					t.Fatalf("bidder %d: stream closed at round %d", bi, want)
				}
				if out.Round != want {
					t.Fatalf("bidder %d: got round %d, want %d", bi, out.Round, want)
				}
				// The unanimity check inside the bidder session proves all
				// providers converged on one vector despite the mismatch.
				if out.Err != nil {
					t.Fatalf("bidder %d round %d: %v (digest fallback must not abort an honest round)", bi, out.Round, out.Err)
				}
				want++
			case <-deadline:
				t.Fatalf("bidder %d: timed out at round %d", bi, want)
			}
		}
	}
	for si, s := range sessions {
		for out := range s.Outcomes() {
			if out.Err != nil {
				t.Fatalf("provider %d round %d: %v", si, out.Round, out.Err)
			}
		}
		if msgs, live := s.Peer().StateSize(); msgs != 0 || live != 0 {
			t.Errorf("provider %d: %d buffered msgs, %d live rounds left", si, msgs, live)
		}
	}
}

// checkStream reads one participant's outcome stream to its end: rounds
// 1..rounds in order, the poisoned ones ⊥ (botErr) and every other one
// accepted, then the close. An honest participant must hold ⊥ on a poisoned
// round; a deviating provider may hold either verdict on its own stream.
// Waiting for the close matters to the callers' residual-state checks: a
// session reclaims a round's state just after emitting it, and closes the
// stream after reclaiming the last.
func checkStream(who string, outs <-chan distauction.RoundOutcome, rounds uint64, poisoned map[uint64]bool, botErr error, honest bool) error {
	deadline := time.After(2 * time.Minute)
	for want := uint64(1); ; want++ {
		select {
		case out, ok := <-outs:
			switch {
			case !ok && want > rounds:
				return nil
			case !ok:
				return fmt.Errorf("%s: stream closed at round %d", who, want)
			case out.Round != want || want > rounds:
				return fmt.Errorf("%s: got round %d, want %d of %d", who, out.Round, want, rounds)
			case poisoned[out.Round] && honest && !errors.Is(out.Err, botErr):
				return fmt.Errorf("%s round %d: err = %v, want ⊥", who, out.Round, out.Err)
			case !poisoned[out.Round] && out.Err != nil:
				return fmt.Errorf("%s round %d: %v", who, out.Round, out.Err)
			}
		case <-deadline:
			return fmt.Errorf("%s: timed out at round %d", who, want)
		}
	}
}

// TestDeepPipelineProviderEquivocationAborts wraps one provider with a
// deviation rule that equivocates its bid-agreement digest toward one peer
// in two specific rounds of a 4-deep pipeline: that peer takes agreement's
// fallback while the others decide, a split view. Exactly those rounds must
// end ⊥ at every participant (abort propagation), every other round must be
// accepted, and no state may leak — deviations cost their round, never the
// session.
func TestDeepPipelineProviderEquivocationAborts(t *testing.T) {
	const rounds = 24
	poisoned := map[uint64]bool{8: true, 16: true}

	wrap := func(i int, conn distauction.Conn) distauction.Conn {
		if i != 2 {
			return conn
		}
		return deviation.Wrap(conn, deviation.Rule{
			Match: deviation.And(
				deviation.MatchBlockStep(wire.BlockBidAgree, 5), // bid-agreement digest
				func(env wire.Envelope) bool { return poisoned[env.Tag.Round] },
			),
			Action:    deviation.Mutate,
			Transform: deviation.EquivocateTo(1), // lie to provider 1 only
		})
	}
	sessions, bidders, _ := deepDeployment(t, rounds, wrap)

	for r := uint64(1); r <= rounds; r++ {
		for bi, b := range bidders {
			if err := b.Submit(r, distauction.UserBid{
				Value: distauction.Fx(float64(8 - bi)), Demand: distauction.Fx(1),
			}); err != nil {
				t.Fatalf("bidder %d round %d: %v", bi, r, err)
			}
		}
	}

	done := make(chan error, len(sessions)+len(bidders))
	for si, s := range sessions {
		go func(si int, s *distauction.Session) {
			done <- checkStream(fmt.Sprintf("provider %d", si), s.Outcomes(), rounds, poisoned, proto.ErrAborted, true)
		}(si, s)
	}
	for bi, b := range bidders {
		go func(bi int, b *distauction.BidderSession) {
			done <- checkStream(fmt.Sprintf("bidder %d", bi), b.Outcomes(), rounds, poisoned, distauction.ErrOutcomeBot, true)
		}(bi, b)
	}
	for i := 0; i < len(sessions)+len(bidders); i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for si, s := range sessions {
		if msgs, live := s.Peer().StateSize(); msgs != 0 || live != 0 {
			t.Errorf("provider %d: %d buffered msgs, %d live rounds left", si, msgs, live)
		}
	}
}

// TestDeepPipelineTaskMismatchAborts drives the concurrent task scheduler
// through a 4-deep pipeline in which one provider's task-digest broadcasts
// are corrupted in two specific rounds — the session-level version of a
// group member returning a mismatched task result mid-graph. Exactly those
// rounds must end ⊥ at every honest provider and every bidder (the
// scheduler withholds the final result until every digest gather it relied
// on confirmed, so the bad rounds abort before any result leaves the
// allocator), every other in-flight round must complete normally,
// and no protocol state may leak — the scheduler's per-round goroutines
// unwind cleanly.
//
// The deviating provider's own stream is held to less: it corrupts only its
// outbound digests, receives honest ones, passes its own check and may emit
// a poisoned round before its peers' abort lands. §3.2 constrains
// non-deviating providers only, and bidders accept nothing but a unanimous
// outcome, so either verdict is legitimate there (DESIGN.md, "What a
// deviating provider's own stream may show"). It must still deliver all
// rounds in order and reclaim all state.
func TestDeepPipelineTaskMismatchAborts(t *testing.T) {
	const rounds = 24
	poisoned := map[uint64]bool{7: true, 15: true}

	const deviant = 2
	flip := deviation.FlipPayloadByte()
	wrap := func(i int, conn distauction.Conn) distauction.Conn {
		if i != deviant {
			return conn
		}
		return deviation.Wrap(conn, deviation.Rule{
			Match: deviation.And(
				deviation.MatchBlockStep(wire.BlockTask, 1), // task result digest
				func(env wire.Envelope) bool { return poisoned[env.Tag.Round] },
			),
			Action:    deviation.Mutate,
			Transform: flip,
		})
	}
	sessions, bidders, _ := deepDeployment(t, rounds, wrap)

	for r := uint64(1); r <= rounds; r++ {
		for bi, b := range bidders {
			if err := b.Submit(r, distauction.UserBid{
				Value: distauction.Fx(float64(6 - bi)), Demand: distauction.Fx(1),
			}); err != nil {
				t.Fatalf("bidder %d round %d: %v", bi, r, err)
			}
		}
	}

	done := make(chan error, len(sessions)+len(bidders))
	for si, s := range sessions {
		go func(si int, s *distauction.Session) {
			done <- checkStream(fmt.Sprintf("provider %d", si), s.Outcomes(), rounds, poisoned, proto.ErrAborted, si != deviant)
		}(si, s)
	}
	for bi, b := range bidders {
		go func(bi int, b *distauction.BidderSession) {
			done <- checkStream(fmt.Sprintf("bidder %d", bi), b.Outcomes(), rounds, poisoned, distauction.ErrOutcomeBot, true)
		}(bi, b)
	}
	for i := 0; i < len(sessions)+len(bidders); i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for si, s := range sessions {
		if msgs, live := s.Peer().StateSize(); msgs != 0 || live != 0 {
			t.Errorf("provider %d: %d buffered msgs, %d live rounds left", si, msgs, live)
		}
	}
}
