package deviation

import (
	"context"
	"errors"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/audit"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/mechanism/standardauction"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

var stdCaps = []fixed.Fixed{fixed.MustInt(2), fixed.MustInt(2), fixed.MustInt(2), fixed.MustInt(2)}

// newStdScenario builds a 4-provider standard auction (k=1, two payment
// groups after task 1) with provider 4 behind the given rules.
func newStdScenario(t *testing.T, rules ...Rule) *scenario {
	t.Helper()
	s := &scenario{
		providers: []wire.NodeID{1, 2, 3, 4},
		users:     []wire.NodeID{100, 101, 102},
		mech: core.StandardAuction{Params: standardauction.Params{
			Capacities: stdCaps, InvEpsilon: 3,
		}},
		bidWindow: 400 * time.Millisecond,
	}
	s.attach(t, transport.NewHub(transport.LatencyModel{}, 2), 4, rules)
	return s
}

func (s *scenario) runStd(t *testing.T, timeout time.Duration) ([]auction.Outcome, []error) {
	t.Helper()
	return s.runRound(t, []auction.UserBid{
		{Value: fixed.MustFloat(9), Demand: fixed.One},
		{Value: fixed.MustFloat(8), Demand: fixed.One},
		{Value: fixed.MustFloat(7), Demand: fixed.One},
	}, timeout)
}

// honest checks the baseline: all four providers agree on a feasible
// outcome with zero-payment winners (no contention at these capacities).
func TestStandardAuctionBaseline(t *testing.T) {
	s := newStdScenario(t)
	outs, errs := s.runStd(t, 30*time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i+1, err)
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Digest() != outs[0].Digest() {
			t.Fatal("providers disagree")
		}
	}
	if err := outs[0].Alloc.CheckFeasible(stdCaps); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

// TestStandardRoundBothPaths: a standard round completes through bid
// agreement's digest path and, with an equivocating bidder, through its
// fallback. Its allocation draws the common coin, whose reveal waits for the
// agreement's binding point, so a path that never opened the gate would
// hang to the 30 s round timeout. A Pass rule on provider 4 counts the
// fallback commits it sends: none on the digest path.
func TestStandardRoundBothPaths(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		s := newStdScenario(t, Rule{Match: MatchBlockStep(wire.BlockBidAgree, 1), Action: Pass})
		s.fallback = fallback
		start := time.Now()
		outs, errs := s.runStd(t, 30*time.Second)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("fallback=%v, provider %d: %v", fallback, i+1, err)
			}
			if outs[i].Digest() != outs[0].Digest() {
				t.Fatalf("fallback=%v: providers disagree", fallback)
			}
		}
		if err := outs[0].Alloc.CheckFeasible(stdCaps); err != nil {
			t.Errorf("fallback=%v: infeasible: %v", fallback, err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("fallback=%v: round took %v", fallback, took)
		}
		if commits := s.deviant.Matched.Load(); (commits > 0) != fallback {
			t.Errorf("fallback=%v: provider 4 sent %d fallback commits", fallback, commits)
		}
	}
}

// A corrupted coin reveal (provider 4 cannot open its commitment) aborts
// the round before any allocation happens.
func TestStandardCorruptedCoinReveal(t *testing.T) {
	s := newStdScenario(t, Rule{
		Match:     MatchBlockStep(wire.BlockCoin, 3),
		Action:    Mutate,
		Transform: FlipPayloadByte(),
	})
	_, errs := s.runStd(t, 10*time.Second)
	for i := 0; i < 3; i++ {
		if !errors.Is(errs[i], proto.ErrAborted) && !errors.Is(errs[i], context.DeadlineExceeded) {
			t.Errorf("honest provider %d: got %v, want abort", i+1, errs[i])
		}
	}
	if s.deviant.Matched.Load() == 0 {
		t.Error("rule never fired")
	}
}

// Provider 4 (a member of one payment group) lies on the data transfer of
// its group's payment share toward the final gather: receivers compare the
// two senders' values and abort. Honest providers never accept the lie.
func TestStandardLyingPaymentTransfer(t *testing.T) {
	s := newStdScenario(t, Rule{
		Match:     MatchBlock(wire.BlockTransfer),
		Action:    Mutate,
		Transform: FlipPayloadByte(),
	})
	outs, errs := s.runStd(t, 10*time.Second)
	for i := 0; i < 3; i++ {
		if errs[i] == nil {
			// If a provider finished despite the lie, its outcome must be
			// untouched by it — the lie was caught before adoption, or the
			// provider never consumed a corrupted transfer.
			if err := outs[i].Alloc.CheckFeasible(stdCaps); err != nil {
				t.Errorf("provider %d accepted infeasible outcome: %v", i+1, err)
			}
			continue
		}
		if !errors.Is(errs[i], proto.ErrAborted) && !errors.Is(errs[i], context.DeadlineExceeded) {
			t.Errorf("honest provider %d: %v", i+1, errs[i])
		}
	}
	// At least one honest provider must have observed the conflict.
	aborted := 0
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			aborted++
		}
	}
	if s.deviant.Matched.Load() > 0 && aborted == 0 {
		t.Error("transfer lies fired but nobody aborted")
	}
}

// Heavy reordering: with large random per-message jitter (delays up to
// 25 ms, no base), messages arrive wildly out of order across senders.
// The protocol is asynchronous by design (§3.3) and must still terminate
// with a unanimous outcome.
func TestHeavyReorderingStillAgrees(t *testing.T) {
	s := &scenario{
		providers: []wire.NodeID{1, 2, 3},
		users:     []wire.NodeID{100, 101},
		mech:      core.DoubleAuction{},
		provBids:  testProvBids,
		bidWindow: 2 * time.Second,
	}
	s.attach(t, transport.NewHub(transport.LatencyModel{Jitter: 25 * time.Millisecond}, 99), 0, nil)
	outs, errs := s.run(t, 60*time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d under reordering: %v", i+1, err)
		}
	}
	ref := referenceOutcome(t)
	for i := range outs {
		if outs[i].Digest() != ref.Digest() {
			t.Errorf("provider %d outcome differs under reordering", i+1)
		}
	}
}

// The audit loop end to end: rounds with a misbehaving provider accumulate
// attributed strikes until the community's exclusion budget recommends
// expelling it, while timeouts alone never cost membership.
func TestAuditLoopRecommendsExclusion(t *testing.T) {
	log := audit.New(nil)
	for round := uint64(1); round <= 2; round++ {
		s := newScenario(t, Rule{
			Match:     MatchBlockStep(wire.BlockBidAgree, 3),
			Action:    Mutate,
			Transform: FlipPayloadByte(),
		})
		s.fallback = true // reveals exist on bid agreement's fallback only
		_, errs := s.run(t, 10*time.Second)
		if s.deviant.Matched.Load() == 0 {
			t.Fatalf("round %d: rule never fired; test is vacuous", round)
		}
		// Feed the first honest provider's view into the audit log.
		if errs[0] == nil {
			log.RecordOutcome(round)
		} else {
			log.RecordAbort(round, errs[0])
		}
	}
	// Both aborts carry provider 3 as culprit: its own reveal failed to
	// open its own commitment.
	if got := log.Strikes(3); got != 2 {
		t.Fatalf("strikes(3) = %d, want 2 (records: %+v)", got, log.Records())
	}
	ex := log.Exclusions(2)
	if len(ex) != 1 || ex[0] != 3 {
		t.Errorf("exclusions = %v, want [3]", ex)
	}
}
