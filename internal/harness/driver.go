package harness

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
)

// lane is one auction as the driver sees it: the sessions of the bidders
// joined to it and the bids they will submit. shard and local say where a
// market placed it (unused by the bare-session builder).
type lane struct {
	name    string
	shard   int
	local   uint32
	bidders []*core.BidderSession // [user]
	bids    [][]auction.UserBid   // [round][user]
}

// driven is what one closed-loop run produced.
type driven struct {
	// elapsed runs from the first bid submission until every bidder holds
	// every round's result of every lane (the paper's metric).
	elapsed time.Duration
	// accepted counts the non-⊥ rounds across all lanes.
	accepted int
	// providers are the provider-side outcome streams the oracle compared
	// the bidders against, [lane][stream][round].
	providers [][][]core.RoundOutcome
}

// drive is the closed loop of §6, the one driver behind every deployment of
// this package. Each bidder of each lane keeps `lookahead` rounds of bids in
// flight beyond the outcomes it has seen (pipeline depth + 1 keeps the
// providers' pipelines full) until it holds `rounds` results. Then the clock
// stops, providerStreams waits for the provider-side consumers and hands
// back their outcome streams ([lane][stream][round]), and the
// outcome-agreement oracle runs over every lane: a run in which some
// participant holds a different outcome than another fails.
func drive(lanes []lane, rounds, lookahead int, providerStreams func() ([][][]core.RoundOutcome, error)) (driven, error) {
	seen := make([][][]core.RoundOutcome, len(lanes)) // [lane][user][round]
	errs := make([][]error, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for j, l := range lanes {
		seen[j] = make([][]core.RoundOutcome, len(l.bidders))
		errs[j] = make([]error, len(l.bidders))
		for i, s := range l.bidders {
			wg.Add(1)
			go func(j, i int, l lane, s *core.BidderSession) {
				defer wg.Done()
				outs := make([]core.RoundOutcome, 0, rounds)
				for r := 1; r <= min(lookahead, rounds); r++ {
					if errs[j][i] = s.Submit(uint64(r), l.bids[r-1][i]); errs[j][i] != nil {
						return
					}
				}
				for out := range s.Outcomes() {
					outs = append(outs, out)
					if next := len(outs) + lookahead; next <= rounds {
						if errs[j][i] = s.Submit(uint64(next), l.bids[next-1][i]); errs[j][i] != nil {
							return
						}
					}
				}
				seen[j][i] = outs
			}(j, i, l, s)
		}
	}
	wg.Wait()
	run := driven{elapsed: time.Since(start)}
	for j, l := range lanes {
		for i, err := range errs[j] {
			if err != nil {
				return driven{}, fmt.Errorf("harness: %s: bidder %d: %w", l.name, i, err)
			}
		}
	}

	var err error
	if run.providers, err = providerStreams(); err != nil {
		return driven{}, err
	}
	for j, l := range lanes {
		accepted, err := checkAgreement(rounds, slices.Concat(run.providers[j], seen[j]))
		if err != nil {
			return driven{}, fmt.Errorf("harness: %s: %w", l.name, err)
		}
		run.accepted += accepted
	}
	return run, nil
}

// checkAgreement is the outcome-agreement oracle (§3.2) for one auction:
// every stream — the provider side first, then each bidder — must hold
// rounds 1..rounds in order, and per round either all hold the identical
// outcome or all hold ⊥. It returns the number of accepted rounds.
func checkAgreement(rounds int, streams [][]core.RoundOutcome) (accepted int, err error) {
	for si, s := range streams {
		if len(s) != rounds {
			return 0, fmt.Errorf("stream %d holds %d of %d rounds", si, len(s), rounds)
		}
	}
	for r := 0; r < rounds; r++ {
		ref := streams[0][r]
		for si, s := range streams {
			switch got := s[r]; {
			case got.Round != uint64(r+1):
				return 0, fmt.Errorf("stream %d holds round %d at position %d", si, got.Round, r+1)
			case (got.Err == nil) != (ref.Err == nil):
				return 0, fmt.Errorf("round %d: stream %d holds err=%v, stream 0 err=%v", r+1, si, got.Err, ref.Err)
			case ref.Err == nil && !sameOutcome(got.Outcome, ref.Outcome):
				return 0, fmt.Errorf("round %d: stream %d holds a different outcome than stream 0", r+1, si)
			}
		}
		if ref.Err == nil {
			accepted++
		}
	}
	return accepted, nil
}

func sameOutcome(a, b auction.Outcome) bool {
	return a.Alloc.NumUsers == b.Alloc.NumUsers && a.Alloc.NumProviders == b.Alloc.NumProviders &&
		slices.Equal(a.Alloc.Units, b.Alloc.Units) &&
		slices.Equal(a.Pay.ByUser, b.Pay.ByUser) &&
		slices.Equal(a.Pay.ToProvider, b.Pay.ToProvider)
}

// residual sums the protocol state still buffered at the given provider
// sessions — flat in rounds, or per-round reclamation broke.
func residual(sessions []*core.Session) (msgs, rounds int) {
	for _, s := range sessions {
		m, r := s.Peer().StateSize()
		msgs += m
		rounds += r
	}
	return msgs, rounds
}

// waitConsumed polls until the provider-side outcome consumers have counted
// `want` outcomes: bidders hold results slightly before the markets'
// consumers count (and settle) them.
func waitConsumed(timeout time.Duration, want int64, consumed func() int64) error {
	deadline := time.Now().Add(timeout)
	for consumed() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: providers consumed %d of %d outcomes before the deadline", consumed(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
