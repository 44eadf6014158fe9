package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distauction"
	"distauction/internal/transport"
)

// deployment is one whole system in this process: network, provider
// nodes, bidder nodes, every auction open and every bidder lane joined.
// It is built through the root façade only.
type deployment struct {
	w      workload
	rounds int

	net      distauction.Network
	link     func() transport.LinkStats // nil without the Resilient layer
	markets  []*distauction.Market
	sessions []*distauction.Session // bare-session workloads
	bidders  []*distauction.MarketBidder
	lanes    []*lane
	prov     [][]*providerView // [provider][lane]
	names    []string

	drainers sync.WaitGroup // bare sessions: provider outcome readers

	openAuction []time.Duration // per OpenAuction / Open call
	joinLane    []time.Duration // per JoinLane / OpenBidder call
}

// providerView is what one provider reported for one lane, written only
// by that provider's outcome goroutine for the lane.
type providerView struct {
	span string          // name of this provider's spans
	at   []time.Duration // [round-1] when the outcome was reported, since the epoch
	lat  []time.Duration // [round-1] the provider's own RoundOutcome.Latency
	log  *spanLog
}

// lane is one auction as the load generator sees it: a BidderSession per
// user. It implements lanePort.
type lane struct {
	bidders []*distauction.BidderSession
	bids    [][]distauction.UserBid // [round-1][user]
	check   *laneCheck

	held      []distauction.RoundOutcome // outcomes of heldRound, checked on the next Await
	heldRound int
}

func (l *lane) Submit(round int) error {
	var first error
	for u, b := range l.bidders {
		if err := b.Submit(uint64(round), l.bids[round-1][u]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Await blocks until every bidder holds the round's outcome. Comparing
// the outcomes is left to the next call (or flush), after the caller has
// stamped the round's end and submitted the next round, so the oracle's
// cost is not inside the measured latency.
func (l *lane) Await(round int) int {
	l.flush()
	failed := 0
	l.heldRound = round
	for _, b := range l.bidders {
		out, ok := <-b.Outcomes()
		if !ok || out.Round != uint64(round) {
			failed++ // missing: the oracle will see the round incomplete
			continue
		}
		if out.Err != nil {
			failed++
		}
		l.held = append(l.held, out)
	}
	return failed
}

func (l *lane) flush() {
	for _, out := range l.held {
		l.check.observe(uint64(l.heldRound), out.Outcome, out.Err != nil)
	}
	clear(l.held)
	l.held = l.held[:0]
}

func nodeIDs(m, n int) (providers, users []distauction.NodeID) {
	for i := 0; i < m; i++ {
		providers = append(providers, distauction.NodeID(i+1))
	}
	for i := 0; i < n; i++ {
		users = append(users, distauction.NodeID(1001+i))
	}
	return providers, users
}

// deploy brings a whole deployment up: network, every node attached,
// every market/auction/session open, every bidder lane joined. epoch and
// traced only feed the provider-side span logs.
func deploy(w workload, rounds int, bids *bidSet, epoch time.Time, traced bool) (*deployment, error) {
	d := &deployment{w: w, rounds: rounds}
	providers, users := nodeIDs(w.m, w.n)

	if w.tcp {
		// Hazard: a Secret with empty Members derives no keys and the run
		// hangs silently, so Members is always set.
		tn := distauction.NewTCPNetwork(distauction.TCPNetworkConfig{
			Members: append(append([]distauction.NodeID(nil), providers...), users...),
			Secret:  []byte("distauction-bench"),
		})
		rn := transport.Resilient(tn, transport.ResilientConfig{})
		d.net, d.link = rn, rn.LinkStats
	} else {
		// The Hub's seed only drives link jitter; it is fixed so that -seed
		// changes the bids and nothing else.
		d.net = distauction.NewHub(distauction.CommunityNetModel(), 1)
	}

	var supply [][]distauction.Fixed // [lane][provider]
	var mech distauction.Mechanism
	if w.mechanism == "standard" {
		caps := standardCapacities(w)
		var err error
		mech, err = distauction.NewMechanism("standard", distauction.MechanismSpec{
			Capacities: caps, InvEpsilon: 5, IterFactor: 1, // ModelDelay 0: real compute
		})
		if err != nil {
			return d, err
		}
		supply = [][]distauction.Fixed{caps}
	} else {
		mech = distauction.NewDoubleAuction()
		for l := 0; l < w.auctions; l++ {
			caps := make([]distauction.Fixed, w.m)
			for p, pb := range bids.providers[l] {
				caps[p] = pb.Capacity
			}
			supply = append(supply, caps)
		}
	}

	d.lanes = make([]*lane, w.auctions)
	laneOf := make(map[string]int, w.auctions)
	for l := range d.lanes {
		name := fmt.Sprintf("auction-%03d", l)
		d.names = append(d.names, name)
		laneOf[name] = l
		d.lanes[l] = &lane{
			bidders: make([]*distauction.BidderSession, w.n),
			bids:    bids.users[l],
			check:   newLaneCheck(w.m+w.n, supply[l]),
		}
	}
	d.prov = make([][]*providerView, w.m)
	for p := range d.prov {
		d.prov[p] = make([]*providerView, w.auctions)
		for l := range d.prov[p] {
			pv := &providerView{
				span: fmt.Sprintf("core.provider_round.%d", p+1),
				at:   make([]time.Duration, rounds), lat: make([]time.Duration, rounds),
			}
			if traced {
				pv.log = &spanLog{workload: w.name, lane: l, epoch: epoch}
			}
			d.prov[p][l] = pv
		}
	}
	report := func(p, l int, out distauction.RoundOutcome) {
		now := time.Now()
		pv := d.prov[p][l]
		if r := int(out.Round); r >= 1 && r <= rounds {
			pv.at[r-1] = now.Sub(epoch)
			pv.lat[r-1] = out.Latency
			pv.log.add(pv.span, r, now.Add(-out.Latency), now)
		}
		d.lanes[l].check.observe(out.Round, out.Outcome, out.Err != nil)
	}

	sessionOpts := func(l, p int) []distauction.Option {
		opts := []distauction.Option{
			distauction.WithK(w.k),
			distauction.WithMechanism(mech),
			distauction.WithBidWindow(bidWindow),
			distauction.WithRoundTimeout(roundTimeout),
			distauction.WithRoundLimit(uint64(rounds)),
			distauction.WithMaxConcurrentRounds(w.depth),
			// Ordered emission must never block a round worker.
			distauction.WithOutcomeBuffer(rounds),
		}
		if bids.providers != nil {
			opts = append(opts, distauction.WithProviderBid(bids.providers[l][p]))
		}
		return opts
	}
	bidderOpts := []distauction.Option{
		distauction.WithRoundLimit(uint64(rounds)),
		distauction.WithOutcomeBuffer(max(w.ahead, w.depth) + 1),
		distauction.WithRoundTimeout(roundTimeout),
	}

	for p, id := range providers {
		conn, err := d.net.Attach(id)
		if err != nil {
			return d, err
		}
		if !w.market {
			t := time.Now()
			s, err := distauction.Open(conn, distauction.Topology{Providers: providers, Users: users}, sessionOpts(0, p)...)
			if err != nil {
				return d, err
			}
			d.openAuction = append(d.openAuction, time.Since(t))
			d.sessions = append(d.sessions, s)
			d.drainers.Add(1)
			go func() {
				defer d.drainers.Done()
				for out := range s.Outcomes() {
					report(p, 0, out)
				}
			}()
			continue
		}
		// Bidders run ahead of the admission window by their own lookahead
		// plus however far the market's outcome consumer lags; the window
		// covers the whole run so the benchmark never measures drops it
		// caused itself.
		mk, err := distauction.OpenMarket(conn, providers,
			distauction.WithAdmissionWindow(rounds+w.depth+3),
			distauction.WithSweepEvery(0),
			distauction.WithOnOutcome(func(name string, out distauction.RoundOutcome) {
				report(p, laneOf[name], out)
			}))
		if err != nil {
			return d, err
		}
		d.markets = append(d.markets, mk)
		for l, name := range d.names {
			t := time.Now()
			_, err := mk.OpenAuction(distauction.AuctionSpec{
				Name: name, Lane: uint32(l + 1), Users: users, Options: sessionOpts(l, p),
			})
			if err != nil {
				return d, err
			}
			d.openAuction = append(d.openAuction, time.Since(t))
		}
	}

	for u, id := range users {
		conn, err := d.net.Attach(id)
		if err != nil {
			return d, err
		}
		if !w.market {
			t := time.Now()
			b, err := distauction.OpenBidder(conn, providers, bidderOpts...)
			if err != nil {
				return d, err
			}
			d.joinLane = append(d.joinLane, time.Since(t))
			d.lanes[0].bidders[u] = b
			continue
		}
		mb, err := distauction.OpenMarketBidder(conn, providers)
		if err != nil {
			return d, err
		}
		d.bidders = append(d.bidders, mb)
		for l, name := range d.names {
			t := time.Now()
			b, err := mb.JoinLane(name, uint32(l+1), bidderOpts...)
			if err != nil {
				return d, err
			}
			d.joinLane = append(d.joinLane, time.Since(t))
			d.lanes[l].bidders[u] = b
		}
	}
	return d, nil
}

// drain waits until every provider has reported every round, so closing
// never races a party still awaiting an outcome (over TCP + Resilient
// that stalled teardown for 10–20 s). The bidders have drained already:
// the load generator read every outcome of every lane.
func (d *deployment) drain() error {
	deadline := time.Now().Add(roundTimeout)
	want := int64(d.w.auctions * d.rounds)
	for _, mk := range d.markets {
		for mk.Stats().Rounds < want {
			if time.Now().After(deadline) {
				return errors.New("providers did not report every round")
			}
			time.Sleep(time.Millisecond)
		}
	}
	done := make(chan struct{})
	go func() { d.drainers.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(time.Until(deadline)):
		return errors.New("provider sessions did not finish")
	}
}

// residualMsgs sums the protocol messages still buffered at the
// providers; per-round state is reclaimed as rounds complete, so after a
// drained run it must not depend on how many rounds ran.
func (d *deployment) residualMsgs() int {
	total := 0
	for _, s := range d.sessions {
		msgs, _ := s.Peer().StateSize()
		total += msgs
	}
	for _, mk := range d.markets {
		for _, name := range d.names {
			if a, ok := mk.Auction(name); ok {
				msgs, _ := a.Session().Peer().StateSize()
				total += msgs
			}
		}
	}
	return total
}

// close tears the deployment down: bidders, then providers, then the
// network. It is safe on a partly built deployment.
func (d *deployment) close() {
	for _, l := range d.lanes {
		if d.w.market {
			break // MarketBidder.Close leaves every lane
		}
		for _, b := range l.bidders {
			if b != nil {
				_ = b.Close()
			}
		}
	}
	for _, mb := range d.bidders {
		_ = mb.Close()
	}
	for _, mk := range d.markets {
		_ = mk.Close()
	}
	for _, s := range d.sessions {
		_ = s.Close()
	}
	d.drainers.Wait()
	if d.net != nil {
		_ = d.net.Close()
	}
}

// verdict folds every lane's oracle.
func (d *deployment) verdict() verdict {
	var v verdict
	for _, l := range d.lanes {
		l.flush()
		v = v.add(l.check.verdict())
	}
	return v
}
