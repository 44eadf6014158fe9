package federation_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/fixed"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/market"
	"distauction/internal/transport"
	"distauction/internal/wire"
	"distauction/internal/workload"
)

const testTimeout = 20 * time.Second

func userRange(start wire.NodeID, n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = start + wire.NodeID(i)
	}
	return ids
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// pickCrossShardPair finds two names that collide on the shard-LOCAL lane
// but place on different shards of {1, 2} — the sharded collision
// semantics regression pair.
func pickCrossShardPair(t *testing.T) (onShard1, onShard2 string) {
	t.Helper()
	type slot struct {
		name  string
		shard int
	}
	byLocal := map[uint32][]slot{}
	for i := 0; i < 8192; i++ {
		name := fmt.Sprintf("fed-%04d", i)
		shard := federation.PlaceForName(name, []int{1, 2})
		local := federation.LocalLaneForName(name)
		for _, prev := range byLocal[local] {
			if prev.shard != shard {
				if prev.shard == 1 {
					return prev.name, name
				}
				return name, prev.name
			}
		}
		byLocal[local] = append(byLocal[local], slot{name, shard})
	}
	t.Fatal("no cross-shard local-lane collision among 8192 names")
	return "", ""
}

// crossShardRig is the shared two-shard fixture: disjoint 3-provider
// committees, one shared ledger, per-shard gateway sets, and the colliding
// auction pair placed one per shard in settle group "cross".
type crossShardRig struct {
	hub     *transport.Hub
	fed     *federation.Market
	specs   []federation.ShardSpec
	users   []wire.NodeID
	led     *ledger.Ledger
	gws     map[int][]*gateway.Gateway // by shard
	nameA   string                     // places on shard 1
	nameB   string                     // places on shard 2
	insts   map[string]workload.DoubleAuctionInstance
	rounds  int
	outMu   sync.Mutex
	outs    map[string][]core.RoundOutcome
	shardOf map[string]int
}

const escrow wire.NodeID = 999

func newCrossShardRig(t *testing.T, rounds int, userFunds float64) *crossShardRig {
	t.Helper()
	const n, m = 3, 3
	rig := &crossShardRig{
		specs: []federation.ShardSpec{
			{Index: 1, Providers: []wire.NodeID{1, 2, 3}},
			{Index: 2, Providers: []wire.NodeID{4, 5, 6}},
		},
		users:  userRange(1001, n),
		led:    ledger.New(),
		gws:    map[int][]*gateway.Gateway{},
		insts:  map[string]workload.DoubleAuctionInstance{},
		rounds: rounds,
		outs:   map[string][]core.RoundOutcome{},
	}
	rig.nameA, rig.nameB = pickCrossShardPair(t)
	rig.shardOf = map[string]int{rig.nameA: 1, rig.nameB: 2}

	rig.led.Open(escrow)
	for _, id := range rig.users {
		rig.led.Open(id)
		if userFunds > 0 {
			if err := rig.led.Deposit(id, fixed.MustFloat(userFunds)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, spec := range rig.specs {
		gws := make([]*gateway.Gateway, len(spec.Providers))
		for i, id := range spec.Providers {
			rig.led.Open(id)
			gws[i] = gateway.New(id, fixed.MustFloat(1e6), nil)
		}
		rig.gws[spec.Index] = gws
	}

	rig.hub = transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { rig.hub.Close() })
	fed, err := federation.Open(rig.hub, rig.specs,
		federation.WithMarketOptions(market.WithAdmissionWindow(rounds+6)),
		federation.WithOnOutcome(func(name string, shard int, out core.RoundOutcome) {
			rig.outMu.Lock()
			rig.outs[name] = append(rig.outs[name], out)
			rig.outMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fed.Close() })
	rig.fed = fed

	for i, name := range []string{rig.nameA, rig.nameB} {
		shard := rig.shardOf[name]
		inst := workload.NewDoubleAuction(uint64(i+1), n, m)
		rig.insts[name] = inst
		err := fed.OpenAuction(federation.AuctionSpec{
			Name:  name,
			Users: rig.users,
			Options: []core.SessionOption{
				core.WithK(1),
				core.WithMechanismName("double"),
				core.WithBidWindow(10 * time.Second),
				core.WithRoundTimeout(testTimeout),
				core.WithRoundLimit(uint64(rounds)),
				core.WithOutcomeBuffer(rounds),
			},
			MemberOptions: func(i int, _ wire.NodeID) []core.SessionOption {
				return []core.SessionOption{core.WithProviderBid(inst.Providers[i])}
			},
			Enforce: &market.EnforceTarget{
				Ledger:   rig.led,
				Gateways: rig.gws[shard],
				Escrow:   escrow,
				TTL:      time.Hour,
			},
			SettleGroup: "cross",
		})
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
	}
	return rig
}

// runBidders joins every user to both auctions over ONE attachment each,
// submits all rounds, and drains both outcome streams.
func (rig *crossShardRig) runBidders(t *testing.T) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(rig.users))
	for i, id := range rig.users {
		conn, err := rig.hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := federation.NewBidder(conn, rig.specs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fb.Close() })
		sessions := map[string]*core.BidderSession{}
		for _, name := range []string{rig.nameA, rig.nameB} {
			s, err := fb.Join(name,
				core.WithRoundLimit(uint64(rig.rounds)),
				core.WithOutcomeBuffer(rig.rounds),
				core.WithRoundTimeout(testTimeout))
			if err != nil {
				t.Fatalf("join %q: %v", name, err)
			}
			sessions[name] = s
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 1; r <= rig.rounds; r++ {
				for _, name := range []string{rig.nameA, rig.nameB} {
					if err := sessions[name].Submit(uint64(r), rig.insts[name].Users[i]); err != nil {
						errs[i] = fmt.Errorf("submit %q round %d: %w", name, r, err)
						return
					}
				}
			}
			for _, name := range []string{rig.nameA, rig.nameB} {
				seen := 0
				for out := range sessions[name].Outcomes() {
					seen++
					if out.Err != nil {
						errs[i] = fmt.Errorf("%q round %d: %w", name, out.Round, out.Err)
						return
					}
				}
				if seen != rig.rounds {
					errs[i] = fmt.Errorf("%q: saw %d of %d rounds", name, seen, rig.rounds)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestFederationCrossShardCommit is the acceptance path: the same three
// users win on two shards in the same rounds, and every round settles
// atomically across both shards through the shared ledger. Run with -race.
func TestFederationCrossShardCommit(t *testing.T) {
	rig := newCrossShardRig(t, 4, 1e5)
	fed := rig.fed

	// The colliding pair landed on different shards: distinct wire lanes,
	// same local lane — both opened (the sharded collision regression).
	shardA, laneA, err := fed.Place(rig.nameA)
	if err != nil {
		t.Fatal(err)
	}
	shardB, laneB, err := fed.Place(rig.nameB)
	if err != nil {
		t.Fatal(err)
	}
	if shardA != 1 || shardB != 2 || laneA == laneB {
		t.Fatalf("placement: %q → (%d,%d), %q → (%d,%d)", rig.nameA, shardA, laneA, rig.nameB, shardB, laneB)
	}
	if _, la := federation.SplitLane(laneA); la != federation.LocalLaneForName(rig.nameA) {
		t.Fatalf("local lane mismatch for %q", rig.nameA)
	}

	supply := rig.led.TotalSupply()
	rig.runBidders(t)

	waitUntil(t, testTimeout, func() bool {
		snap := fed.Stats()
		return snap.SettleCommits == int64(rig.rounds) && snap.Rounds == int64(2*rig.rounds)
	}, "cross-shard rounds settled")

	snap := fed.Stats()
	if snap.SettleAborts != 0 || snap.SettleErrs != 0 {
		t.Fatalf("aborts=%d errs=%d", snap.SettleAborts, snap.SettleErrs)
	}
	if got := rig.led.TotalSupply(); got != supply {
		t.Fatalf("supply changed: %v -> %v", supply, got)
	}
	if rig.led.Holds() != 0 {
		t.Fatalf("leaked holds: %d", rig.led.Holds())
	}

	// Replay equality: settling the observed outcomes serially — rounds in
	// order, legs in name order, exactly the settler's schedule — lands on
	// the identical journal and balances.
	replay := ledger.New()
	replay.Open(escrow)
	for _, id := range rig.users {
		replay.Open(id)
		if err := replay.Deposit(id, fixed.MustFloat(1e5)); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range rig.specs {
		for _, id := range spec.Providers {
			replay.Open(id)
		}
	}
	names := []string{rig.nameA, rig.nameB}
	sort.Strings(names)
	rig.outMu.Lock()
	defer rig.outMu.Unlock()
	for r := 0; r < rig.rounds; r++ {
		for _, name := range names {
			out := rig.outs[name][r]
			if out.Err != nil || out.Round != uint64(r+1) {
				t.Fatalf("%q outcome %d: round %d err %v", name, r, out.Round, out.Err)
			}
			committee := rig.specs[rig.shardOf[name]-1].Providers
			transfers, err := ledger.OutcomeTransfers(out.Outcome, rig.users, committee, escrow)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.Settle(out.Round, transfers); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(rig.led.Journal(), replay.Journal()) {
		t.Fatalf("journal diverges from serial replay")
	}
	for _, id := range append(append([]wire.NodeID{escrow}, rig.users...), 1, 2, 3, 4, 5, 6) {
		if got, want := rig.led.Balance(id), replay.Balance(id); got != want {
			t.Fatalf("account %d: %v, replay says %v", id, got, want)
		}
	}

	// Per-shard aggregates: one auction each, all rounds accepted, healthy,
	// nothing dropped; per-node counters cover all six nodes.
	if len(snap.PerShard) != 2 {
		t.Fatalf("shard rollup: %+v", snap)
	}
	for _, ss := range snap.PerShard {
		if len(ss.Auctions) != 1 || ss.Accepted != int64(rig.rounds) || ss.Aborted != 0 {
			t.Fatalf("shard %d: %+v", ss.Shard, ss)
		}
		if !ss.Healthy() || ss.Saturation() != 0 || ss.BidsDropped != 0 {
			t.Fatalf("shard %d health: %+v", ss.Shard, ss)
		}
	}
	if len(snap.PerNode) != 6 {
		t.Fatalf("node rollup: %+v", snap.PerNode)
	}
	for _, ns := range snap.PerNode {
		if len(ns.Serves) != 1 || ns.ParkedDropped != 0 {
			t.Fatalf("node %d: %+v", ns.Node, ns)
		}
	}

	// Graceful retirement: drain one auction, then close the federation.
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := fed.DrainAuction(ctx, rig.nameA); err != nil {
		t.Fatalf("drain %q: %v", rig.nameA, err)
	}
	if got := fed.Names(); len(got) != 1 || got[0] != rig.nameB {
		t.Fatalf("names after drain: %v", got)
	}
	if err := fed.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := fed.Names(); len(got) != 0 {
		t.Fatalf("names after close: %v", got)
	}
}

// TestFederationCrossShardAbort is the issue's abort path end-to-end: with
// unfunded users every round's first affordable leg reserves, the group
// fails, and everything staged is released — no money moves, no
// reservation survives, supply stays conserved. Run with -race.
func TestFederationCrossShardAbort(t *testing.T) {
	rig := newCrossShardRig(t, 3, 0)
	fed := rig.fed
	supply := rig.led.TotalSupply()

	rig.runBidders(t)

	waitUntil(t, testTimeout, func() bool {
		snap := fed.Stats()
		return snap.SettleCommits+snap.SettleAborts == int64(rig.rounds) && snap.Rounds == int64(2*rig.rounds)
	}, "cross-shard rounds resolved")

	// A round aborts iff any leg carries a positive payment the unfunded
	// users cannot cover; with this workload that is every round, but
	// derive it from the observed outcomes rather than assuming.
	rig.outMu.Lock()
	wantAborts := 0
	for r := 0; r < rig.rounds; r++ {
		paid := fixed.Fixed(0)
		for _, name := range []string{rig.nameA, rig.nameB} {
			paid += rig.outs[name][r].Outcome.Pay.TotalPaid()
		}
		if paid > 0 {
			wantAborts++
		}
	}
	rig.outMu.Unlock()
	if wantAborts == 0 {
		t.Fatal("degenerate workload: no round carried a payment")
	}

	snap := fed.Stats()
	if snap.SettleAborts != int64(wantAborts) || snap.SettleErrs != int64(wantAborts) {
		t.Fatalf("aborts=%d errs=%d, want %d", snap.SettleAborts, snap.SettleErrs, wantAborts)
	}
	if len(rig.led.Journal()) != 0 {
		t.Fatalf("aborted rounds journaled %d entries", len(rig.led.Journal()))
	}
	for _, id := range append(append([]wire.NodeID{escrow}, rig.users...), 1, 2, 3, 4, 5, 6) {
		if got := rig.led.Balance(id); got != 0 {
			t.Fatalf("account %d moved to %v on aborted rounds", id, got)
		}
	}
	for _, gws := range rig.gws {
		for _, g := range gws {
			if g.Live() != 0 {
				t.Fatalf("gateway %d kept %d reservations after abort", g.ID(), g.Live())
			}
		}
	}
	if rig.led.Holds() != 0 || rig.led.HeldFunds() != 0 {
		t.Fatalf("leaked holds: %d (%v fenced)", rig.led.Holds(), rig.led.HeldFunds())
	}
	if got := rig.led.TotalSupply(); got != supply {
		t.Fatalf("supply changed: %v -> %v", supply, got)
	}
}

// TestFederationSameShardCollisionPinned: two names colliding on the SAME
// shard's local lane surface market.ErrLaneCollision, and pinning an
// explicit LocalLane resolves it — unchanged collision semantics within a
// shard.
func TestFederationSameShardCollisionPinned(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	specs := []federation.ShardSpec{{Index: 1, Providers: []wire.NodeID{1, 2, 3}}}
	fed, err := federation.Open(hub, specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fed.Close() })

	// Find two names with the same local lane (single shard: same shard by
	// construction).
	byLocal := map[uint32]string{}
	var first, second string
	for i := 0; i < 4096 && second == ""; i++ {
		name := fmt.Sprintf("same-%04d", i)
		local := federation.LocalLaneForName(name)
		if prev, ok := byLocal[local]; ok {
			first, second = prev, name
		} else {
			byLocal[local] = name
		}
	}
	if second == "" {
		t.Fatal("no same-shard collision among 4096 names")
	}

	opts := []core.SessionOption{
		core.WithK(1),
		core.WithMechanismName("double"),
		core.WithBidWindow(10 * time.Second),
		core.WithRoundTimeout(testTimeout),
	}
	users := userRange(1001, 2)
	if err := fed.OpenAuction(federation.AuctionSpec{Name: first, Users: users, Options: opts}); err != nil {
		t.Fatalf("open %q: %v", first, err)
	}
	err = fed.OpenAuction(federation.AuctionSpec{Name: second, Users: users, Options: opts})
	if !errors.Is(err, market.ErrLaneCollision) {
		t.Fatalf("same-shard collision: %v", err)
	}
	free := federation.LocalLaneForName(second)%federation.MaxLocalLane + 1
	if free == federation.LocalLaneForName(first) {
		free = free%federation.MaxLocalLane + 1
	}
	if err := fed.OpenAuction(federation.AuctionSpec{
		Name: second, Users: users, Options: opts, LocalLane: free,
	}); err != nil {
		t.Fatalf("pinned reopen of %q: %v", second, err)
	}
	if got := fed.Names(); len(got) != 2 {
		t.Fatalf("names: %v", got)
	}
}

// TestFederationCatalogChurn runs concurrent OpenAuction / CloseAuction /
// DrainAuction / shard open-close against the router and the copy-on-write
// catalog (run with -race): placements stay deterministic, no auction is
// lost or leaked, and the catalog is empty at the end.
func TestFederationCatalogChurn(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	// Three shards over four nodes with overlapping committees — the
	// node-reuse path (one market, one attachment, several shards).
	specs := []federation.ShardSpec{
		{Index: 1, Providers: []wire.NodeID{10, 11, 12}},
		{Index: 2, Providers: []wire.NodeID{11, 12, 13}},
		{Index: 3, Providers: []wire.NodeID{12, 13, 10}},
	}
	fed, err := federation.Open(hub, specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fed.Close() })

	opts := []core.SessionOption{
		core.WithK(1),
		core.WithMechanismName("double"),
		core.WithBidWindow(10 * time.Second),
		core.WithRoundTimeout(testTimeout),
	}
	users := userRange(3001, 2)
	const perWorker = 24
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("churn-%d-%04d", w, i)
				// Pin to the worker's shard so shard-4 churn below never
				// invalidates the placement mid-open, and pin the local lane
				// so 24 names per shard cannot birthday-collide on 255 lanes.
				spec := federation.AuctionSpec{
					Name: name, Shard: w + 1, LocalLane: uint32(i + 1),
					Users: users, Options: opts,
				}
				if err := fed.OpenAuction(spec); err != nil {
					t.Errorf("open %q: %v", name, err)
					return
				}
				switch i % 3 {
				case 0:
					if err := fed.CloseAuction(name); err != nil {
						t.Errorf("close %q: %v", name, err)
						return
					}
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
					if err := fed.DrainAuction(ctx, name); err != nil {
						t.Errorf("drain %q: %v", name, err)
					}
					cancel()
				default: // left open; swept below
				}
			}
		}(w)
	}
	// Shard churn: open and retire shard 4 — hard and gracefully by turns —
	// while auctions churn elsewhere. DrainShard sets the shard's draining
	// flag, which Stats must not read unlocked: a drain waits until the
	// reader has seen shard 4, so its write lands beside a Stats in flight.
	sawShard4 := make(chan struct{}, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			// Fresh nodes each cycle: closing the shard released the
			// previous nodes' attachments, and hub IDs are single-use.
			base := wire.NodeID(20 + 3*i)
			spec := federation.ShardSpec{Index: 4, Providers: []wire.NodeID{base, base + 1, base + 2}}
			if err := fed.OpenShard(spec); err != nil {
				t.Errorf("open shard 4: %v", err)
				return
			}
			name := fmt.Sprintf("churn-s4-%04d", i)
			if err := fed.OpenAuction(federation.AuctionSpec{Name: name, Shard: 4, Users: users, Options: opts}); err != nil {
				t.Errorf("open %q: %v", name, err)
			}
			retire := fed.CloseShard
			if i%2 == 1 {
				select {
				case <-sawShard4: // left over from an earlier cycle
				default:
				}
				select {
				case <-sawShard4:
				case <-time.After(testTimeout):
					t.Errorf("reader never saw shard 4")
				}
				retire = func(shard int) error {
					ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
					defer cancel()
					return fed.DrainShard(ctx, shard)
				}
			}
			if err := retire(4); err != nil {
				t.Errorf("retire shard 4: %v", err)
				return
			}
		}
	}()
	// Readers: placements and stats must stay coherent mid-churn.
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = fed.Names()
			for _, ss := range fed.Stats().PerShard {
				if ss.Shard == 4 {
					select {
					case sawShard4 <- struct{}{}:
					default:
					}
				}
			}
			if _, _, err := fed.Place("churn-0-0000"); err != nil &&
				!errors.Is(err, federation.ErrUnknownShard) {
				t.Errorf("place: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()
	if t.Failed() {
		return
	}

	// A third of each worker's names stayed open; they are all present,
	// re-opening any of them collides by name, and closing them empties
	// the catalog with nothing leaked on any node.
	left := fed.Names()
	if want := 3 * perWorker / 3; len(left) != want {
		t.Fatalf("%d auctions left open, want %d: %v", len(left), want, left)
	}
	for _, name := range left {
		if err := fed.OpenAuction(federation.AuctionSpec{Name: name, Users: users, Options: opts}); err == nil {
			t.Fatalf("duplicate open of %q succeeded", name)
		}
		if err := fed.CloseAuction(name); err != nil {
			t.Fatalf("final close %q: %v", name, err)
		}
	}
	if got := fed.Names(); len(got) != 0 {
		t.Fatalf("catalog not empty: %v", got)
	}
	snap := fed.Stats()
	if len(snap.PerShard) != 3 {
		t.Fatalf("final rollup: %+v", snap)
	}
	for _, ss := range snap.PerShard {
		if len(ss.Auctions) != 0 {
			t.Fatalf("shard %d still lists auctions: %+v", ss.Shard, ss.Auctions)
		}
	}
	// Shard 4's node was fully released; reopening the shard works.
	if err := fed.OpenShard(federation.ShardSpec{Index: 4, Providers: []wire.NodeID{90, 91, 92}}); err != nil {
		t.Fatalf("reopen shard 4: %v", err)
	}
}
