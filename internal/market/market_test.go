package market_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/market"
	"distauction/internal/transport"
	"distauction/internal/wire"
	"distauction/internal/workload"
)

const testTimeout = 2 * time.Minute

// testDeployment is a hub with m provider markets and helpers to open
// auctions and drive bidders.
type testDeployment struct {
	t         *testing.T
	hub       *transport.Hub
	providers []wire.NodeID
	markets   []*market.Market
}

// newDeployment attaches m providers to a zero-latency hub and opens one
// market per provider. optsFor customises one provider's market options
// (nil = defaults).
func newDeployment(t *testing.T, m int, optsFor func(i int) []market.Option) *testDeployment {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	providers := make([]wire.NodeID, m)
	for i := range providers {
		providers[i] = wire.NodeID(i + 1)
	}
	d := &testDeployment{t: t, hub: hub, providers: providers}
	for i, id := range providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		var opts []market.Option
		if optsFor != nil {
			opts = optsFor(i)
		}
		mk, err := market.Open(conn, providers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mk.Close() })
		d.markets = append(d.markets, mk)
	}
	return d
}

// openAuction opens the same auction on every provider market.
// extraFor adds per-provider spec tweaks (e.g. the enforce target on one).
func (d *testDeployment) openAuction(name string, users []wire.NodeID, rounds int,
	inst workload.DoubleAuctionInstance, extraFor func(i int, spec *market.AuctionSpec)) {
	d.t.Helper()
	for i, mk := range d.markets {
		spec := market.AuctionSpec{
			Name:  name,
			Users: users,
			Options: []core.SessionOption{
				core.WithK(1),
				core.WithMechanismName("double"),
				core.WithBidWindow(10 * time.Second),
				core.WithRoundTimeout(testTimeout),
				core.WithRoundLimit(uint64(rounds)),
				core.WithOutcomeBuffer(rounds),
				core.WithProviderBid(inst.Providers[i]),
			},
		}
		if extraFor != nil {
			extraFor(i, &spec)
		}
		if _, err := mk.OpenAuction(spec); err != nil {
			d.t.Fatalf("open auction %q on provider %d: %v", name, i, err)
		}
	}
}

// runBidders joins every user to the auction, submits bids for all rounds
// up front and returns each round's outcome as seen by the first bidder
// (unanimity means any bidder's view works).
func (d *testDeployment) runBidders(name string, users []wire.NodeID, rounds int,
	inst workload.DoubleAuctionInstance) []core.RoundOutcome {
	d.t.Helper()
	type result struct {
		outs []core.RoundOutcome
		err  error
	}
	results := make([]result, len(users))
	var wg sync.WaitGroup
	for i, id := range users {
		conn, err := d.hub.Attach(id)
		if err != nil {
			d.t.Fatal(err)
		}
		mb, err := market.NewBidder(conn, d.providers)
		if err != nil {
			d.t.Fatal(err)
		}
		d.t.Cleanup(func() { mb.Close() })
		s, err := mb.Join(name,
			core.WithRoundLimit(uint64(rounds)),
			core.WithOutcomeBuffer(rounds),
			core.WithRoundTimeout(testTimeout))
		if err != nil {
			d.t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, s *core.BidderSession) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				if err := s.Submit(uint64(r), inst.Users[i]); err != nil {
					results[i].err = err
					return
				}
			}
			for out := range s.Outcomes() {
				results[i].outs = append(results[i].outs, out)
			}
		}(i, s)
	}
	wg.Wait()
	for i, res := range results {
		if res.err != nil {
			d.t.Fatalf("bidder %d: %v", i, res.err)
		}
		if len(res.outs) != rounds {
			d.t.Fatalf("bidder %d: saw %d of %d rounds", i, len(res.outs), rounds)
		}
	}
	return results[0].outs
}

func userRange(base, n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(base + i)
	}
	return ids
}

func TestLaneForNameDeterministicAndInRange(t *testing.T) {
	a, b := market.LaneForName("gateway-7"), market.LaneForName("gateway-7")
	if a != b {
		t.Fatalf("lane not deterministic: %d vs %d", a, b)
	}
	if a < 1 || a > wire.MaxLane {
		t.Fatalf("lane %d out of range [1,%d]", a, wire.MaxLane)
	}
	if market.LaneForName("gateway-7") == market.LaneForName("band-5GHz") {
		t.Fatalf("suspicious collision between unrelated names")
	}
}

func TestMarketTwoAuctionsBothComplete(t *testing.T) {
	const rounds, n = 3, 3
	d := newDeployment(t, 3, nil)
	alphaUsers, betaUsers := userRange(1001, n), userRange(2001, n)
	alphaInst := workload.NewDoubleAuction(1, n, 3)
	betaInst := workload.NewDoubleAuction(2, n, 3)
	d.openAuction("alpha", alphaUsers, rounds, alphaInst, nil)
	d.openAuction("beta", betaUsers, rounds, betaInst, nil)

	var wg sync.WaitGroup
	var alphaOuts, betaOuts []core.RoundOutcome
	wg.Add(2)
	go func() { defer wg.Done(); alphaOuts = d.runBidders("alpha", alphaUsers, rounds, alphaInst) }()
	go func() { defer wg.Done(); betaOuts = d.runBidders("beta", betaUsers, rounds, betaInst) }()
	wg.Wait()

	for r, out := range alphaOuts {
		if out.Err != nil {
			t.Fatalf("alpha round %d: %v", r+1, out.Err)
		}
	}
	for r, out := range betaOuts {
		if out.Err != nil {
			t.Fatalf("beta round %d: %v", r+1, out.Err)
		}
	}

	// Market counters converge once the provider-side consumers drain.
	waitForRounds(t, d.markets[0], 2*rounds)
	snap := d.markets[0].Stats()
	if snap.Open != 2 || snap.Accepted != 2*rounds || snap.Aborted != 0 {
		t.Fatalf("unexpected stats: %+v", snap)
	}
	if snap.BidsAdmitted != int64(2*rounds*n) {
		t.Fatalf("admitted %d bids, want %d", snap.BidsAdmitted, 2*rounds*n)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after completion", snap.QueueDepth)
	}
}

func waitForRounds(t *testing.T, mk *market.Market, rounds int) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		if snap := mk.Stats(); snap.Rounds >= int64(rounds) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("market never reached %d rounds: %+v", rounds, mk.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOpenAuctionValidation(t *testing.T) {
	d := newDeployment(t, 3, nil)
	mk := d.markets[0]
	users := userRange(1001, 2)
	inst := workload.NewDoubleAuction(1, 2, 3)

	if _, err := mk.OpenAuction(market.AuctionSpec{Users: users}); err == nil {
		t.Fatal("no error for empty name")
	}
	spec := market.AuctionSpec{
		Name: "pinned", Lane: 7, Users: users,
		Options: []core.SessionOption{
			core.WithK(1), core.WithMechanismName("double"),
			core.WithProviderBid(inst.Providers[0]),
		},
	}
	if _, err := mk.OpenAuction(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := mk.OpenAuction(spec); err == nil {
		t.Fatal("no error for duplicate name")
	}
	other := spec
	other.Name = "other"
	if _, err := mk.OpenAuction(other); !errors.Is(err, market.ErrLaneCollision) {
		t.Fatalf("want ErrLaneCollision, got %v", err)
	}
	other.Lane = 8
	if _, err := mk.OpenAuction(other); err != nil {
		t.Fatalf("explicit lane should resolve the collision: %v", err)
	}
	// A session-option failure must not leak the lane.
	bad := market.AuctionSpec{
		Name: "bad", Lane: 9, Users: users,
		Options: []core.SessionOption{core.WithK(-1), core.WithMechanismName("double")},
	}
	if _, err := mk.OpenAuction(bad); err == nil {
		t.Fatal("no error for bad session options")
	}
	bad.Options = []core.SessionOption{
		core.WithK(1), core.WithMechanismName("double"),
		core.WithProviderBid(inst.Providers[0]),
	}
	if _, err := mk.OpenAuction(bad); err != nil {
		t.Fatalf("lane 9 should be free after the failed open: %v", err)
	}
}

// TestAdmissionBackpressureAndFairShare covers the bidder-facing front
// end: unknown senders and out-of-window rounds are dropped at the door,
// in-window bids are admitted once per sender.
func TestAdmissionBackpressureAndFairShare(t *testing.T) {
	const n = 2
	d := newDeployment(t, 3, func(int) []market.Option {
		return []market.Option{market.WithAdmissionWindow(3)}
	})
	users := userRange(1001, n)
	inst := workload.NewDoubleAuction(1, n, 3)
	// Long bid window: round 1 stays open (nobody submits round-1 bids), so
	// the gate's window [1, 4) stays put while we probe it.
	d.openAuction("gated", users, 1, inst, nil)

	conn, err := d.hub.Attach(users[0])
	if err != nil {
		t.Fatal(err)
	}
	mb, err := market.NewBidder(conn, d.providers)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	s, err := mb.Join("gated", core.WithRoundLimit(1), core.WithRoundTimeout(testTimeout))
	if err != nil {
		t.Fatal(err)
	}

	// Out of window: round 100 with window [1,4).
	if err := s.Submit(100, inst.Users[0]); err != nil {
		t.Fatal(err)
	}
	waitForDropped(t, d.markets[0], 1)

	// Unknown sender: a node outside the auction's user set.
	strangerConn, err := d.hub.Attach(9999)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := market.NewBidder(strangerConn, d.providers)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	ss, err := sb.Join("gated", core.WithRoundLimit(1), core.WithRoundTimeout(testTimeout))
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Submit(2, inst.Users[0]); err != nil {
		t.Fatal(err)
	}
	waitForDropped(t, d.markets[0], 2)

	// In-window bid admitted; the duplicate re-send is free.
	if err := s.Submit(2, inst.Users[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(2, inst.Users[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		snap := d.markets[0].Stats()
		if snap.BidsAdmitted == 1 && snap.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want 1 admitted bid queued, got %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitForDropped(t *testing.T, mk *market.Market, want int64) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		if snap := mk.Stats(); snap.BidsDropped >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped counter never reached %d: %+v", want, mk.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLaneIsolationAbort is the lane-isolation guarantee: an abort (⊥) in
// one auction's round must not propagate to — or delay — another auction's
// in-flight rounds on the same shared connections.
func TestLaneIsolationAbort(t *testing.T) {
	const rounds, n = 4, 3
	d := newDeployment(t, 3, nil)
	alphaUsers, betaUsers := userRange(1001, n), userRange(2001, n)
	alphaInst := workload.NewDoubleAuction(1, n, 3)
	betaInst := workload.NewDoubleAuction(2, n, 3)
	d.openAuction("alpha", alphaUsers, rounds, alphaInst, nil)
	d.openAuction("beta", betaUsers, rounds, betaInst, nil)

	// Poison alpha's round 3 before any of its bids arrive: the abort
	// control message rides alpha's lane to every provider.
	a, ok := d.markets[0].Auction("alpha")
	if !ok {
		t.Fatal("alpha not open")
	}
	a.Session().Peer().Fail(3, "test", errors.New("isolation test"))

	var wg sync.WaitGroup
	var alphaOuts, betaOuts []core.RoundOutcome
	wg.Add(2)
	go func() { defer wg.Done(); alphaOuts = d.runBidders("alpha", alphaUsers, rounds, alphaInst) }()
	go func() { defer wg.Done(); betaOuts = d.runBidders("beta", betaUsers, rounds, betaInst) }()
	wg.Wait()

	for i, out := range alphaOuts {
		r := uint64(i + 1)
		if r == 3 {
			if out.Err == nil {
				t.Fatalf("alpha round 3 should be ⊥")
			}
			continue
		}
		if out.Err != nil {
			t.Fatalf("alpha round %d: %v (abort leaked within the lane)", r, out.Err)
		}
	}
	for i, out := range betaOuts {
		if out.Err != nil {
			t.Fatalf("beta round %d: %v (abort crossed lanes)", i+1, out.Err)
		}
	}

	waitForRounds(t, d.markets[0], 2*rounds)
	snap := d.markets[0].Stats()
	var alphaSnap, betaSnap market.AuctionSnapshot
	for _, as := range snap.Auctions {
		switch as.Name {
		case "alpha":
			alphaSnap = as
		case "beta":
			betaSnap = as
		}
	}
	if alphaSnap.Aborted != 1 || alphaSnap.Accepted != rounds-1 {
		t.Fatalf("alpha counters: %+v", alphaSnap)
	}
	if betaSnap.Aborted != 0 || betaSnap.Accepted != rounds {
		t.Fatalf("beta counters: %+v", betaSnap)
	}
}

// TestConcurrentEnforcementSharedLedger settles outcomes from two auctions
// into ONE shared ledger and ONE gateway set concurrently, with a ⊥
// outcome interleaved between accepted ones: balances must equal a serial
// replay of the accepted outcomes, the ⊥ round must move no money and
// reserve nothing, and total supply is conserved. Run with -race.
func TestConcurrentEnforcementSharedLedger(t *testing.T) {
	const rounds, n, m = 4, 3, 3
	const escrow wire.NodeID = 999
	led := ledger.New()
	gws := make([]*gateway.Gateway, m)
	for i := range gws {
		gws[i] = gateway.New(wire.NodeID(i+1), fixed.MustFloat(1e6), nil)
	}
	target := &market.EnforceTarget{Ledger: led, Gateways: gws, Escrow: escrow, TTL: time.Hour}

	alphaUsers, betaUsers := userRange(1001, n), userRange(2001, n)
	led.Open(escrow)
	for _, id := range append(append([]wire.NodeID{}, alphaUsers...), betaUsers...) {
		led.Open(id)
		if err := led.Deposit(id, fixed.MustFloat(1e5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= m; i++ {
		led.Open(wire.NodeID(i))
	}
	supplyBefore := led.TotalSupply()

	// Outcomes as observed by provider 1's market, for the serial replay.
	var outMu sync.Mutex
	observed := map[string][]core.RoundOutcome{}
	d := newDeployment(t, m, func(i int) []market.Option {
		if i != 0 {
			return nil
		}
		return []market.Option{market.WithOnOutcome(func(name string, out core.RoundOutcome) {
			outMu.Lock()
			observed[name] = append(observed[name], out)
			outMu.Unlock()
		})}
	})
	alphaInst := workload.NewDoubleAuction(1, n, m)
	betaInst := workload.NewDoubleAuction(2, n, m)
	// Enforcement runs on provider 1's market only (it owns the gateways in
	// this deployment); the other providers' markets just run the protocol.
	withEnforce := func(i int, spec *market.AuctionSpec) {
		if i == 0 {
			spec.Enforce = target
		}
	}
	d.openAuction("alpha", alphaUsers, rounds, alphaInst, withEnforce)
	d.openAuction("beta", betaUsers, rounds, betaInst, withEnforce)

	// ⊥ interleaved between accepted rounds: alpha round 2 aborts.
	a, _ := d.markets[0].Auction("alpha")
	a.Session().Peer().Fail(2, "test", errors.New("enforcement test"))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); d.runBidders("alpha", alphaUsers, rounds, alphaInst) }()
	go func() { defer wg.Done(); d.runBidders("beta", betaUsers, rounds, betaInst) }()
	wg.Wait()
	waitForRounds(t, d.markets[0], 2*rounds)

	if got := led.TotalSupply(); got != supplyBefore {
		t.Fatalf("total supply changed: %v -> %v", supplyBefore, got)
	}

	// Serial replay of the accepted outcomes into a fresh ledger must land
	// on the same balances — concurrency changed nothing, ⊥ paid nothing.
	replay := ledger.New()
	replay.Open(escrow)
	accounts := append(append([]wire.NodeID{}, alphaUsers...), betaUsers...)
	for _, id := range accounts {
		replay.Open(id)
		if err := replay.Deposit(id, fixed.MustFloat(1e5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= m; i++ {
		replay.Open(wire.NodeID(i))
	}
	wantReservations := 0
	outMu.Lock()
	defer outMu.Unlock()
	for _, name := range []string{"alpha", "beta"} {
		users := alphaUsers
		if name == "beta" {
			users = betaUsers
		}
		aborted := 0
		for _, out := range observed[name] {
			if out.Err != nil {
				aborted++
				continue
			}
			transfers, err := ledger.OutcomeTransfers(out.Outcome, users, d.providers, escrow)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.Settle(out.Round, transfers); err != nil {
				t.Fatal(err)
			}
			for u := 0; u < out.Outcome.Alloc.NumUsers; u++ {
				for p := 0; p < out.Outcome.Alloc.NumProviders; p++ {
					if out.Outcome.Alloc.At(u, p) > 0 {
						wantReservations++
					}
				}
			}
		}
		if name == "alpha" && aborted != 1 {
			t.Fatalf("alpha: want exactly 1 ⊥ round, got %d", aborted)
		}
		if name == "beta" && aborted != 0 {
			t.Fatalf("beta: want no ⊥ rounds, got %d", aborted)
		}
	}
	for _, id := range append(accounts, escrow) {
		if got, want := led.Balance(id), replay.Balance(id); got != want {
			t.Fatalf("account %d: balance %v, replay says %v", id, got, want)
		}
	}
	for i := 1; i <= m; i++ {
		id := wire.NodeID(i)
		if got, want := led.Balance(id), replay.Balance(id); got != want {
			t.Fatalf("provider %d: balance %v, replay says %v", id, got, want)
		}
	}
	live := 0
	for _, g := range gws {
		live += g.Live()
	}
	if live != wantReservations {
		t.Fatalf("live reservations %d, want %d", live, wantReservations)
	}
}

// TestSweepHookReclaimsExpired exercises the market's enforcement-loop
// sweep: with an immediate TTL every reservation is dead by the next
// round, and the sweep cadence of 1 reclaims them eagerly.
func TestSweepHookReclaimsExpired(t *testing.T) {
	const rounds, n, m = 3, 2, 3
	const escrow wire.NodeID = 999
	led := ledger.New()
	gws := make([]*gateway.Gateway, m)
	for i := range gws {
		gws[i] = gateway.New(wire.NodeID(i+1), fixed.MustFloat(1e6), nil)
	}
	target := &market.EnforceTarget{Ledger: led, Gateways: gws, Escrow: escrow, TTL: time.Nanosecond}
	users := userRange(1001, n)
	led.Open(escrow)
	for _, id := range users {
		led.Open(id)
		if err := led.Deposit(id, fixed.MustFloat(1e5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= m; i++ {
		led.Open(wire.NodeID(i))
	}

	d := newDeployment(t, m, func(int) []market.Option {
		return []market.Option{market.WithSweepEvery(1)}
	})
	inst := workload.NewDoubleAuction(1, n, m)
	d.openAuction("swept", users, rounds, inst, func(i int, spec *market.AuctionSpec) {
		if i == 0 {
			spec.Enforce = target
		}
	})
	outs := d.runBidders("swept", users, rounds, inst)
	traded := false
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("round %d: %v", out.Round, out.Err)
		}
		for u := 0; u < out.Outcome.Alloc.NumUsers; u++ {
			for p := 0; p < out.Outcome.Alloc.NumProviders; p++ {
				if out.Outcome.Alloc.At(u, p) > 0 {
					traded = true
				}
			}
		}
	}
	if !traded {
		t.Skip("workload produced no trades; nothing to sweep")
	}
	waitForRounds(t, d.markets[0], rounds)
	if swept := d.markets[0].Stats().Swept; swept == 0 {
		t.Fatalf("sweep hook reclaimed nothing (stats: %+v)", d.markets[0].Stats())
	}
	for _, g := range gws {
		if g.Live() != 0 {
			t.Fatalf("gateway %d still holds %d live reservations", g.ID(), g.Live())
		}
	}
}

// TestDrainAuctionAndReuse drains an auction gracefully — every round
// holding an admitted bid emits before the close — and the name and lane
// are reusable afterwards.
func TestDrainAuctionAndReuse(t *testing.T) {
	const n = 2
	d := newDeployment(t, 3, nil)
	users := userRange(1001, n)
	inst := workload.NewDoubleAuction(1, n, 3)
	// No round limit: the auction runs until drained.
	for i, mk := range d.markets {
		_, err := mk.OpenAuction(market.AuctionSpec{
			Name:  "churn",
			Users: users,
			Options: []core.SessionOption{
				core.WithK(1),
				core.WithMechanismName("double"),
				core.WithBidWindow(50 * time.Millisecond),
				core.WithRoundTimeout(testTimeout),
				core.WithProviderBid(inst.Providers[i]),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// One bid for round 1 from each user, then drain: round 1 must emit.
	var sessions []*core.BidderSession
	for i, id := range users {
		conn, err := d.hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := market.NewBidder(conn, d.providers)
		if err != nil {
			t.Fatal(err)
		}
		defer mb.Close()
		s, err := mb.Join("churn", core.WithRoundTimeout(testTimeout))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		if err := s.Submit(1, inst.Users[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until both bids are admitted so the drain has a target round.
	deadline := time.Now().Add(testTimeout)
	for d.markets[0].Stats().BidsAdmitted < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("bids never admitted: %+v", d.markets[0].Stats())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, mk := range d.markets {
		wg.Add(1)
		go func(mk *market.Market) {
			defer wg.Done()
			if err := mk.DrainAuction(ctx, "churn"); err != nil {
				t.Errorf("drain: %v", err)
			}
		}(mk)
	}
	wg.Wait()

	for i, mk := range d.markets {
		snap := mk.Stats()
		if snap.Open != 0 {
			t.Fatalf("provider %d: %d auctions open after drain", i, snap.Open)
		}
	}
	// Round 1 — the round holding the admitted bids — completed before the
	// close: every bidder holds its (non-⊥) outcome.
	for i, s := range sessions {
		select {
		case out := <-s.Outcomes():
			if out.Round != 1 || out.Err != nil {
				t.Fatalf("bidder %d: round %d err %v; drain did not wait for the admitted round", i, out.Round, out.Err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("bidder %d: no outcome for the admitted round", i)
		}
	}

	// The name and its lane are free again.
	for i, mk := range d.markets {
		_, err := mk.OpenAuction(market.AuctionSpec{
			Name:  "churn",
			Users: users,
			Options: []core.SessionOption{
				core.WithK(1),
				core.WithMechanismName("double"),
				core.WithBidWindow(50 * time.Millisecond),
				core.WithRoundTimeout(testTimeout),
				core.WithRoundLimit(1),
				core.WithProviderBid(inst.Providers[i]),
			},
		})
		if err != nil {
			t.Fatalf("reopen on provider %d: %v", i, err)
		}
	}
}

// TestMarketCloseIsClean double-closes markets and bidders around live
// auctions; nothing should hang or panic.
func TestMarketCloseIsClean(t *testing.T) {
	const n = 2
	d := newDeployment(t, 3, nil)
	users := userRange(1001, n)
	inst := workload.NewDoubleAuction(1, n, 3)
	d.openAuction("x", users, 100, inst, nil)
	conn, err := d.hub.Attach(users[0])
	if err != nil {
		t.Fatal(err)
	}
	mb, err := market.NewBidder(conn, d.providers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Join("x", core.WithRoundTimeout(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mk := range d.markets {
		if err := mk.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mk.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.markets[0].OpenAuction(market.AuctionSpec{Name: "y", Users: users}); !errors.Is(err, market.ErrMarketClosed) {
		t.Fatalf("want ErrMarketClosed, got %v", err)
	}
}
