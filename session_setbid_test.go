package distauction_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"distauction"
)

// lockstepRound submits both bidders' bids for round r, then waits for round
// r at every provider session and every bidder. The round must be accepted
// with byte-identical outcomes everywhere; that outcome is returned. A
// bidder's round r+1 bid goes out only after this returns, so the session
// cannot finish round r+1 before the caller's next step.
func lockstepRound(t *testing.T, sessions []*distauction.Session, bidders []*distauction.BidderSession, r uint64) distauction.Outcome {
	t.Helper()
	for bi, b := range bidders {
		bid := distauction.UserBid{Value: distauction.Fx(float64(10 - bi)), Demand: distauction.Fx(1)}
		if err := b.Submit(r, bid); err != nil {
			t.Fatalf("bidder %d round %d: %v", bi, r, err)
		}
	}
	var first distauction.Outcome
	var want []byte
	check := func(who string, outs <-chan distauction.RoundOutcome) {
		t.Helper()
		select {
		case out, ok := <-outs:
			switch {
			case !ok:
				t.Fatalf("%s: stream closed before round %d", who, r)
			case out.Round != r:
				t.Fatalf("%s: got round %d, want %d", who, out.Round, r)
			case out.Err != nil:
				t.Fatalf("%s round %d: %v", who, r, out.Err)
			}
			got := out.Outcome.Encode()
			if want == nil {
				first, want = out.Outcome, got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s round %d: outcome differs from the first participant's", who, r)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: timed out waiting for round %d", who, r)
		}
	}
	for si, s := range sessions {
		check(fmt.Sprintf("provider %d", si+1), s.Outcomes())
	}
	for bi, b := range bidders {
		check(fmt.Sprintf("bidder %d", bi), b.Outcomes())
	}
	return first
}

// TestSessionSetBidClearBid drives provider 1's own bid through SetBid and
// ClearBid on a double auction (m = 3, k = 1, one round in flight, bidders
// in lockstep). A session reads its own bid when a round opens, and with
// one round in flight round r+1 may already be open when round r's outcome
// is read, so each change is checked on the rounds from r+2 on — rounds
// that open only after the call — and round r+1 must only be accepted.
func TestSessionSetBidClearBid(t *testing.T) {
	_, _, sessions, bidders := sessionDeployment(t,
		distauction.WithMaxConcurrentRounds(1),
		distauction.WithBidWindow(30*time.Second), // lockstep: never expires
	)
	ask := distauction.ProviderBid{Cost: distauction.Fx(1), Capacity: distauction.Fx(5)} // provider 1's opening ask
	sells := func(o distauction.Outcome) bool {
		for u := 0; u < o.Alloc.NumUsers; u++ {
			if o.Alloc.At(u, 0) != 0 {
				return true
			}
		}
		return o.Pay.ToProvider[0] != 0
	}

	r := uint64(1)
	phase := func(name string, wantSells bool) {
		t.Helper()
		lockstepRound(t, sessions, bidders, r) // may have opened before the change
		r++
		for end := r + 2; r < end; r++ {
			if got := sells(lockstepRound(t, sessions, bidders, r)); got != wantSells {
				t.Fatalf("%s, round %d: provider 1 sells = %v, want %v", name, r, got, wantSells)
			}
		}
	}

	for end := r + 2; r < end; r++ {
		if !sells(lockstepRound(t, sessions, bidders, r)) {
			t.Fatalf("round %d: provider 1 sells nothing at its opening ask", r)
		}
	}
	sessions[0].SetBid(distauction.ProviderBid{Cost: distauction.Fx(100), Capacity: distauction.Fx(5)})
	phase("cost above every value", false)
	sessions[0].ClearBid()
	phase("neutral bid", false)
	sessions[0].SetBid(ask)
	phase("opening ask restored", true)
	sessions[0].ClearBid() // from a selling ask, so a no-op ClearBid shows
	phase("neutral bid after the restored ask", false)
}

// TestSessionSetBidIgnoredByStandardAuction runs the same lockstep rounds
// on two standard-auction deployments, calling SetBid and ClearBid on one
// of them only: providers do not bid in a standard auction, so every
// round's outcome is byte-identical across the two.
func TestSessionSetBidIgnoredByStandardAuction(t *testing.T) {
	const rounds = 6
	run := func(setBid bool) [][]byte {
		_, _, sessions, bidders := sessionDeployment(t,
			distauction.WithNamedMechanism("standard", distauction.MechanismSpec{
				Capacities: []distauction.Fixed{distauction.Fx(5), distauction.Fx(5), distauction.Fx(5)},
				InvEpsilon: 2,
			}),
			distauction.WithMaxConcurrentRounds(1),
			distauction.WithBidWindow(30*time.Second),
		)
		outs := make([][]byte, 0, rounds)
		for r := uint64(1); r <= rounds; r++ {
			if setBid {
				switch r {
				case 2:
					sessions[0].SetBid(distauction.ProviderBid{Cost: distauction.Fx(100), Capacity: distauction.Fx(5)})
				case 4:
					sessions[0].ClearBid()
				}
			}
			outs = append(outs, lockstepRound(t, sessions, bidders, r).Encode())
		}
		return outs
	}
	plain, withSetBid := run(false), run(true)
	for i := range plain {
		if !bytes.Equal(plain[i], withSetBid[i]) {
			t.Errorf("round %d: outcome with SetBid differs from the run without it", i+1)
		}
	}
}
