package distauction_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"distauction"
	"distauction/internal/proto"
)

// sessionDeployment opens provider sessions and bidder sessions for a
// 3-provider / 2-user double auction on a zero-latency hub.
func sessionDeployment(t *testing.T, opts ...distauction.Option) (*distauction.Hub, distauction.Topology, []*distauction.Session, []*distauction.BidderSession) {
	t.Helper()
	hub := distauction.NewHub(distauction.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })

	top := distauction.Topology{
		Providers: []distauction.NodeID{1, 2, 3},
		Users:     []distauction.NodeID{100, 101},
	}
	provBids := []distauction.ProviderBid{
		{Cost: distauction.Fx(1), Capacity: distauction.Fx(5)},
		{Cost: distauction.Fx(2), Capacity: distauction.Fx(5)},
		{Cost: distauction.Fx(3), Capacity: distauction.Fx(5)},
	}
	sessions := make([]*distauction.Session, 0, len(top.Providers))
	for i, id := range top.Providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		all := append([]distauction.Option{
			distauction.WithK(1),
			distauction.WithMechanismName("double"),
			distauction.WithBidWindow(2 * time.Second),
			distauction.WithProviderBid(provBids[i]),
		}, opts...)
		s, err := distauction.Open(conn, top, all...)
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
		b, err := distauction.OpenBidder(conn, top.Providers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		bidders = append(bidders, b)
	}
	return hub, top, sessions, bidders
}

// TestSessionPipelinedRounds runs 120 consecutive rounds through the
// session engine with a 4-deep pipeline and no manual round management:
// outcomes must stream to every bidder in round order, an injected ⊥ round
// must not end the session, and per-round protocol state must be reclaimed
// (no monotonic growth across rounds).
func TestSessionPipelinedRounds(t *testing.T) {
	const rounds = 120
	const poisoned = 60
	_, top, sessions, bidders := sessionDeployment(t,
		distauction.WithRoundLimit(rounds),
		distauction.WithMaxConcurrentRounds(4),
	)

	// Poison one future round at one provider before any bids are in: the
	// abort must cost exactly that round (⊥) and nothing else.
	sessions[0].Peer().Fail(poisoned, "test", errors.New("injected deviation"))

	// Bidders run ahead of the pipeline: all bids submitted up front.
	for bi, b := range bidders {
		for r := uint64(1); r <= rounds; r++ {
			bid := distauction.UserBid{
				Value:  distauction.Fx(float64(10 - bi)),
				Demand: distauction.Fx(1),
			}
			if err := b.Submit(r, bid); err != nil {
				t.Fatalf("bidder %d round %d: %v", bi, r, err)
			}
		}
	}

	// Every provider session must emit rounds 1..rounds in order.
	provDone := make(chan error, len(sessions))
	for si, s := range sessions {
		go func(si int, s *distauction.Session) {
			want := uint64(1)
			for out := range s.Outcomes() {
				if out.Round != want {
					provDone <- fmt.Errorf("provider %d: got round %d, want %d", si, out.Round, want)
					return
				}
				if out.Round == poisoned {
					if !errors.Is(out.Err, proto.ErrAborted) {
						provDone <- fmt.Errorf("provider %d round %d: err = %v, want aborted", si, out.Round, out.Err)
						return
					}
				} else if out.Err != nil {
					provDone <- fmt.Errorf("provider %d round %d: %v", si, out.Round, out.Err)
					return
				}
				want++
			}
			if want != rounds+1 {
				provDone <- fmt.Errorf("provider %d: stream ended at round %d", si, want-1)
				return
			}
			provDone <- nil
		}(si, s)
	}

	// Every bidder must see the same stream: rounds 1..rounds in order,
	// with exactly the poisoned round reported as ⊥.
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
				if out.Round == poisoned {
					if !errors.Is(out.Err, distauction.ErrOutcomeBot) {
						t.Fatalf("bidder %d round %d: err = %v, want ⊥", bi, out.Round, out.Err)
					}
				} else {
					if out.Err != nil {
						t.Fatalf("bidder %d round %d: %v", bi, out.Round, out.Err)
					}
					if out.Outcome.Alloc.NumUsers != len(top.Users) {
						t.Fatalf("bidder %d round %d: %d users in outcome", bi, out.Round, out.Outcome.Alloc.NumUsers)
					}
				}
				want++
			case <-deadline:
				t.Fatalf("bidder %d: timed out waiting for round %d", bi, want)
			}
		}
	}

	for range sessions {
		if err := <-provDone; err != nil {
			t.Fatal(err)
		}
	}

	// State reclamation: with all rounds complete and ended, the peers hold
	// no buffered messages and no live round entries — running 120 rounds
	// left nothing behind.
	for si, s := range sessions {
		msgs, live := s.Peer().StateSize()
		if msgs != 0 || live != 0 {
			t.Errorf("provider %d: %d buffered messages, %d live rounds after session end", si, msgs, live)
		}
	}
}

// TestSessionCloseMidRound closes provider sessions while round 1 is still
// collecting bids: bidders must promptly learn ⊥ instead of blocking, and
// the sessions' outcome streams must terminate.
func TestSessionCloseMidRound(t *testing.T) {
	_, _, sessions, bidders := sessionDeployment(t,
		distauction.WithBidWindow(time.Minute), // far longer than the test
	)

	// Let every scheduler enter round 1's bid collection.
	time.Sleep(50 * time.Millisecond)
	for _, s := range sessions {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for bi, b := range bidders {
		select {
		case out, ok := <-b.Outcomes():
			if !ok {
				t.Fatalf("bidder %d: stream closed without a round-1 result", bi)
			}
			if out.Round != 1 {
				t.Fatalf("bidder %d: got round %d, want 1", bi, out.Round)
			}
			if !errors.Is(out.Err, distauction.ErrOutcomeBot) {
				t.Fatalf("bidder %d: err = %v, want ⊥", bi, out.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("bidder %d: no ⊥ after provider close", bi)
		}
	}

	// The provider outcome streams terminate after Close.
	for si, s := range sessions {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case _, ok := <-s.Outcomes():
				if !ok {
					goto next
				}
			case <-deadline:
				t.Fatalf("provider %d: outcomes not closed after Close", si)
			}
		}
	next:
	}
}

// TestSessionRoundLimitClosesStreams verifies a finite session drains
// cleanly: after the limit, both channel ends close without Close.
func TestSessionRoundLimitClosesStreams(t *testing.T) {
	_, _, sessions, bidders := sessionDeployment(t, distauction.WithRoundLimit(3))
	for bi, b := range bidders {
		if err := b.Submit(1, distauction.UserBid{Value: distauction.Fx(5), Demand: distauction.Fx(1)}); err != nil {
			t.Fatalf("bidder %d: %v", bi, err)
		}
	}
	// Rounds 2 and 3 run with neutral user bids (nobody submits); the
	// session must still complete them and then end the streams.
	for bi, b := range bidders {
		seen := 0
		deadline := time.After(time.Minute)
		for {
			select {
			case out, ok := <-b.Outcomes():
				if !ok {
					if seen != 3 {
						t.Fatalf("bidder %d: saw %d rounds, want 3", bi, seen)
					}
					goto next
				}
				if out.Err != nil {
					t.Fatalf("bidder %d round %d: %v", bi, out.Round, out.Err)
				}
				seen++
			case <-deadline:
				t.Fatalf("bidder %d: timed out after %d rounds", bi, seen)
			}
		}
	next:
	}
	for si, s := range sessions {
		deadline := time.After(30 * time.Second)
		for {
			select {
			case _, ok := <-s.Outcomes():
				if !ok {
					goto nextProv
				}
			case <-deadline:
				t.Fatalf("provider %d: outcomes not closed after round limit", si)
			}
		}
	nextProv:
	}
}

// TestSessionOpenAttachRace opens the first provider's session well before
// the other participants attach to the network: the engine must retry its
// round-1 own-bid broadcast within the bid window (no transport can route
// to a node that has not attached yet) instead of aborting the round.
func TestSessionOpenAttachRace(t *testing.T) {
	hub := distauction.NewHub(distauction.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	top := distauction.Topology{
		Providers: []distauction.NodeID{1, 2, 3},
		Users:     []distauction.NodeID{100},
	}
	open := func(id distauction.NodeID) *distauction.Session {
		t.Helper()
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := distauction.Open(conn, top,
			distauction.WithK(1),
			distauction.WithMechanismName("double"),
			distauction.WithBidWindow(2*time.Second),
			distauction.WithRoundLimit(1),
			distauction.WithProviderBid(distauction.ProviderBid{Cost: distauction.Fx(1), Capacity: distauction.Fx(5)}),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	sessions := []*distauction.Session{open(top.Providers[0])}
	time.Sleep(150 * time.Millisecond) // round 1's broadcast fails and retries meanwhile
	sessions = append(sessions, open(top.Providers[1]), open(top.Providers[2]))

	conn, err := hub.Attach(top.Users[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := distauction.OpenBidder(conn, top.Providers, distauction.WithRoundLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.Submit(1, distauction.UserBid{Value: distauction.Fx(3), Demand: distauction.Fx(1)}); err != nil {
		t.Fatal(err)
	}

	for si, s := range sessions {
		select {
		case out := <-s.Outcomes():
			if out.Err != nil {
				t.Fatalf("provider %d round %d: %v", si, out.Round, out.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("provider %d: no round-1 outcome", si)
		}
	}
	out := <-b.Outcomes()
	if out.Err != nil {
		t.Fatalf("bidder: %v", out.Err)
	}
}

// TestBidderSessionRoundTimeout bounds each round's wait: with no provider
// ever delivering a result (lost result messages), the bidder must report
// each round as ⊥ after the round timeout and keep the stream moving
// instead of wedging on round 1.
func TestBidderSessionRoundTimeout(t *testing.T) {
	hub := distauction.NewHub(distauction.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	conn, err := hub.Attach(distauction.NodeID(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := distauction.OpenBidder(conn, []distauction.NodeID{1, 2, 3},
		distauction.WithRoundTimeout(200*time.Millisecond),
		distauction.WithRoundLimit(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	want := uint64(1)
	deadline := time.After(10 * time.Second)
	for want <= 2 {
		select {
		case out, ok := <-b.Outcomes():
			if !ok {
				t.Fatalf("stream closed at round %d", want)
			}
			if out.Round != want {
				t.Fatalf("got round %d, want %d", out.Round, want)
			}
			if !errors.Is(out.Err, distauction.ErrOutcomeBot) {
				t.Fatalf("round %d err = %v, want ⊥", out.Round, out.Err)
			}
			want++
		case <-deadline:
			t.Fatalf("bidder wedged waiting for round %d", want)
		}
	}
}

// TestOpenOptionValidation exercises the option validation that Open
// performs before any goroutine starts.
func TestOpenOptionValidation(t *testing.T) {
	hub := distauction.NewHub(distauction.LatencyModel{}, 1)
	defer hub.Close()
	top := distauction.Topology{
		Providers: []distauction.NodeID{1, 2, 3},
		Users:     []distauction.NodeID{100},
	}

	cases := []struct {
		name string
		opts []distauction.Option
	}{
		{"no mechanism", nil},
		{"negative k", []distauction.Option{distauction.WithK(-1), distauction.WithMechanismName("double")}},
		{"k too large for m", []distauction.Option{distauction.WithK(2), distauction.WithMechanismName("double")}},
		{"unknown mechanism", []distauction.Option{distauction.WithMechanismName("vickrey-clarke")}},
		{"standard without capacities", []distauction.Option{distauction.WithK(1), distauction.WithMechanismName("standard")}},
		{"nil mechanism", []distauction.Option{distauction.WithMechanism(nil)}},
		{"zero pipeline depth", []distauction.Option{distauction.WithMechanismName("double"), distauction.WithMaxConcurrentRounds(0)}},
		{"negative bid window", []distauction.Option{distauction.WithMechanismName("double"), distauction.WithBidWindow(-time.Second)}},
		{"zero start round", []distauction.Option{distauction.WithMechanismName("double"), distauction.WithStartRound(0)}},
		{"negative outcome buffer", []distauction.Option{distauction.WithMechanismName("double"), distauction.WithOutcomeBuffer(-1)}},
	}
	for i, tc := range cases {
		conn, err := hub.Attach(distauction.NodeID(10 + i))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tc.name, func(t *testing.T) {
			topHere := top
			topHere.Providers = append([]distauction.NodeID{distauction.NodeID(10 + i)}, top.Providers[1:]...)
			s, err := distauction.Open(conn, topHere, tc.opts...)
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted %s", tc.name)
			}
			if !errors.Is(err, distauction.ErrConfig) {
				t.Errorf("%s: error %v does not match ErrConfig", tc.name, err)
			}
		})
	}

	// A conn that is not in the provider set must be rejected too.
	conn, err := hub.Attach(distauction.NodeID(99))
	if err != nil {
		t.Fatal(err)
	}
	if s, err := distauction.Open(conn, top, distauction.WithK(1), distauction.WithMechanismName("double")); err == nil {
		s.Close()
		t.Fatal("Open accepted a non-provider conn")
	} else if !errors.Is(err, distauction.ErrConfig) {
		t.Errorf("non-provider conn: error %v does not match ErrConfig", err)
	}

	// Bidder-side validation: no providers, bad shared options.
	if b, err := distauction.OpenBidder(conn, nil); err == nil {
		b.Close()
		t.Fatal("OpenBidder accepted an empty provider set")
	}
	if b, err := distauction.OpenBidder(conn, top.Providers, distauction.WithStartRound(0)); err == nil {
		b.Close()
		t.Fatal("OpenBidder accepted start round 0")
	}
}
