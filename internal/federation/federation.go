package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"distauction/internal/core"
	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// ErrClosed reports use of a closed federation.
var ErrClosed = errors.New("federation: closed")

// ErrUnknownShard reports an operation on a shard that is not open.
var ErrUnknownShard = errors.New("federation: unknown shard")

// ErrShardDraining reports an OpenAuction on a shard being drained.
var ErrShardDraining = errors.New("federation: shard draining")

// ShardSpec describes one shard: a 1-based index (at most MaxShards) and
// the provider committee that runs its auctions. Committees of different
// shards may overlap — a node serving two shards runs both shards' lanes
// over its one market and one attachment.
type ShardSpec struct {
	Index     int
	Providers []wire.NodeID
}

// AuctionSpec describes one auction of the federated catalog.
type AuctionSpec struct {
	// Name identifies the auction across the whole federation. Required,
	// unique federation-wide (the catalog is global even though sessions
	// are per-shard).
	Name string
	// Shard pins the auction onto a specific shard. 0 (the default) routes
	// via the shard router (pin or rendezvous placement).
	Shard int
	// LocalLane pins the auction's shard-local lane. 0 derives it from
	// Name via LocalLaneForName; set it explicitly only to resolve a
	// same-shard ErrLaneCollision.
	LocalLane uint32
	// Users are the auction's bidders. Required.
	Users []wire.NodeID
	// StartRound is the auction's first round (0 means 1).
	StartRound uint64
	// AdmissionWindow overrides the per-market admission window for this
	// auction (0 = market default).
	AdmissionWindow int
	// Options configure the auction's session on every committee member.
	Options []core.SessionOption
	// MemberOptions, if non-nil, returns extra session options for the i-th
	// committee member — per-provider configuration such as
	// core.WithProviderBid, which differs across a committee.
	MemberOptions func(i int, id wire.NodeID) []core.SessionOption
	// Enforce, if non-nil, applies accepted outcomes to gateways and a
	// ledger. Without a SettleGroup it is enforced from the shard's first
	// committee member (one enforcement per outcome, as in a single
	// market deployment). With a SettleGroup it becomes the auction's leg
	// of the group's cross-shard two-phase settlement.
	Enforce *market.EnforceTarget
	// SettleGroup names the atomic-settlement domain this auction belongs
	// to. All auctions of a group — typically one per shard a user bids
	// on — settle each round's outcomes together: all commit or all
	// release. Requires Enforce.
	SettleGroup string
}

// settings is the target of the federation's functional options.
type settings struct {
	marketOpts []market.Option
	onOutcome  func(auction string, shard int, out core.RoundOutcome)
	errs       []error
}

// Option configures a federated Market at Open time.
type Option func(*settings)

// WithMarketOptions forwards options to every per-node market the
// federation opens (admission window, sweep cadence…).
func WithMarketOptions(opts ...market.Option) Option {
	return func(s *settings) { s.marketOpts = append(s.marketOpts, opts...) }
}

// WithOnOutcome installs a callback invoked once per round outcome of
// every federated auction (from the shard's first committee member, after
// enforcement). It must not block.
func WithOnOutcome(f func(auction string, shard int, out core.RoundOutcome)) Option {
	return func(s *settings) { s.onOutcome = f }
}

// node is one provider node's attachment: a single conn and market shared
// by every shard the node serves.
type node struct {
	market *market.Market
	refs   int // shards currently served
}

// shardState is one open shard.
type shardState struct {
	spec     ShardSpec
	draining bool
	names    map[string]struct{} // open auctions placed here
}

// placement is one catalog entry (immutable once stored; replaced
// copy-on-write).
type placement struct {
	shard     int
	lane      uint32
	group     string
	primary   wire.NodeID
	committee []wire.NodeID
	users     []wire.NodeID
	closing   bool
}

// Market is the federated marketplace façade: one catalog, one Stats, one
// bidder API — many provider committees. It owns a market.Market per
// distinct provider node and places each auction's sessions on its shard's
// committee; the shard router keeps placement deterministic so every
// participant agrees without coordination.
type Market struct {
	network transport.Network
	cfg     settings
	router  *Router
	settler *Settler

	// catalog is the name → placement index (copy-on-write: the outcome
	// dispatch path reads it per outcome without locks).
	catalog atomic.Pointer[map[string]*placement]

	mu     sync.Mutex
	nodes  map[wire.NodeID]*node
	shards map[int]*shardState
	closed bool

	settleErrs metrics.Counter // cross-shard prepare/commit failures
}

// Open starts a federation over net with the given initial shards.
func Open(network transport.Network, shards []ShardSpec, opts ...Option) (*Market, error) {
	cfg := settings{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.errs) > 0 {
		return nil, errors.Join(cfg.errs...)
	}
	router, err := NewRouter()
	if err != nil {
		return nil, err
	}
	f := &Market{
		network: network,
		cfg:     cfg,
		router:  router,
		settler: NewSettler(),
		nodes:   make(map[wire.NodeID]*node),
		shards:  make(map[int]*shardState),
	}
	empty := make(map[string]*placement)
	f.catalog.Store(&empty)
	for _, spec := range shards {
		if err := f.OpenShard(spec); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Router exposes the federation's shard router (placement auditing, pins).
func (f *Market) Router() *Router { return f.router }

// dispatch routes one node's outcome stream: exactly the shard's first
// committee member forwards each outcome — to the auction's settle group
// if it has one, then to the user callback — so enforcement and callbacks
// fire once per round outcome, not once per committee member. It runs on
// the auction's consumer goroutine and reads only copy-on-write state
// (never f.mu: a concurrent CloseAuction holds f.mu while waiting for this
// very goroutine to drain).
func (f *Market) dispatch(self wire.NodeID) func(string, core.RoundOutcome) {
	return func(name string, out core.RoundOutcome) {
		pl := (*f.catalog.Load())[name]
		if pl == nil || pl.primary != self {
			return
		}
		if pl.group != "" {
			if err := f.settler.Observe(pl.group, name, out); err != nil {
				f.settleErrs.Inc()
			}
		}
		if cb := f.cfg.onOutcome; cb != nil {
			cb(name, pl.shard, out)
		}
	}
}

// OpenShard activates a shard: its committee members' markets are opened
// (or reused, for nodes already serving another shard) and the shard joins
// the router's active set, so routed auctions may now place on it.
func (f *Market) OpenShard(spec ShardSpec) error {
	if spec.Index < 1 || spec.Index > MaxShards {
		return fmt.Errorf("%w: shard index %d out of range [1,%d]", core.ErrConfig, spec.Index, MaxShards)
	}
	if len(spec.Providers) == 0 {
		return fmt.Errorf("%w: shard %d needs a committee", core.ErrConfig, spec.Index)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, dup := f.shards[spec.Index]; dup {
		return fmt.Errorf("%w: shard %d already open", core.ErrConfig, spec.Index)
	}
	var created []wire.NodeID
	rollback := func() {
		for _, id := range created {
			_ = f.nodes[id].market.Close()
			delete(f.nodes, id)
		}
	}
	for _, id := range spec.Providers {
		if n := f.nodes[id]; n != nil {
			// The node already serves another shard: widen its provider
			// universe so this committee's traffic can park pre-open.
			n.market.RegisterProviders(spec.Providers...)
			continue
		}
		conn, err := f.network.Attach(id)
		if err != nil {
			rollback()
			return fmt.Errorf("federation: shard %d: attach node %d: %w", spec.Index, id, err)
		}
		opts := append(append([]market.Option(nil), f.cfg.marketOpts...),
			market.WithOnOutcome(f.dispatch(id)))
		mk, err := market.Open(conn, spec.Providers, opts...)
		if err != nil {
			_ = conn.Close()
			rollback()
			return fmt.Errorf("federation: shard %d: node %d: %w", spec.Index, id, err)
		}
		f.nodes[id] = &node{market: mk}
		created = append(created, id)
	}
	for _, id := range spec.Providers {
		f.nodes[id].refs++
	}
	if err := f.router.AddShard(spec.Index); err != nil {
		for _, id := range spec.Providers {
			f.nodes[id].refs--
		}
		rollback()
		return err
	}
	f.shards[spec.Index] = &shardState{
		spec:  ShardSpec{Index: spec.Index, Providers: append([]wire.NodeID(nil), spec.Providers...)},
		names: make(map[string]struct{}),
	}
	return nil
}

// Committee returns a shard's provider committee.
func (f *Market) Committee(shard int) ([]wire.NodeID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.shards[shard]
	if st == nil {
		return nil, false
	}
	return append([]wire.NodeID(nil), st.spec.Providers...), true
}

// Shards returns the open shard indices, sorted.
func (f *Market) Shards() []int { return f.router.Shards() }

// Place returns where an auction runs or would run: the catalog placement
// for open auctions, the router's placement (shard + derived wire lane)
// otherwise.
func (f *Market) Place(name string) (shard int, lane uint32, err error) {
	if pl := (*f.catalog.Load())[name]; pl != nil {
		return pl.shard, pl.lane, nil
	}
	shard, lane, ok := f.router.PlaceLane(name)
	if !ok {
		return 0, 0, fmt.Errorf("%w: no shard active", ErrUnknownShard)
	}
	return shard, lane, nil
}

// OpenAuction places an auction on its shard and opens it on every
// committee member. Routed placement (Shard == 0) is deterministic, so
// bidders compute the same shard and lane from the same name with no
// coordination; the placement is recorded in the catalog and never moves,
// even if the shard set changes afterwards (rebalancing affects only
// auctions opened later).
func (f *Market) OpenAuction(spec AuctionSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("%w: auction needs a name", core.ErrConfig)
	}
	if spec.SettleGroup != "" && spec.Enforce == nil {
		return fmt.Errorf("%w: auction %q: settle group without enforce target", core.ErrConfig, spec.Name)
	}
	local := spec.LocalLane
	if local == 0 {
		local = LocalLaneForName(spec.Name)
	}
	if local > MaxLocalLane {
		return fmt.Errorf("%w: local lane %d out of range (max %d)", core.ErrConfig, local, MaxLocalLane)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	shard := spec.Shard
	if shard == 0 {
		s, ok := f.router.Place(spec.Name)
		if !ok {
			return fmt.Errorf("%w: no shard active", ErrUnknownShard)
		}
		shard = s
	}
	st := f.shards[shard]
	if st == nil {
		return fmt.Errorf("%w: %d", ErrUnknownShard, shard)
	}
	if st.draining {
		return fmt.Errorf("%w: %d", ErrShardDraining, shard)
	}
	if (*f.catalog.Load())[spec.Name] != nil {
		return fmt.Errorf("federation: auction %q already open", spec.Name)
	}
	lane := WireLane(shard, local)
	committee := st.spec.Providers

	opened := 0
	for i, id := range committee {
		opts := spec.Options
		if spec.MemberOptions != nil {
			opts = append(append([]core.SessionOption(nil), spec.Options...), spec.MemberOptions(i, id)...)
		}
		mspec := market.AuctionSpec{
			Name:            spec.Name,
			Lane:            lane,
			Users:           spec.Users,
			Providers:       committee,
			StartRound:      spec.StartRound,
			AdmissionWindow: spec.AdmissionWindow,
			Options:         opts,
		}
		if i == 0 && spec.Enforce != nil && spec.SettleGroup == "" {
			mspec.Enforce = spec.Enforce
		}
		if _, err := f.nodes[id].market.OpenAuction(mspec); err != nil {
			for _, prev := range committee[:opened] {
				_ = f.nodes[prev].market.CloseAuction(spec.Name)
			}
			return fmt.Errorf("federation: shard %d: node %d: %w", shard, id, err)
		}
		opened++
	}
	if spec.SettleGroup != "" {
		f.settler.AddMember(spec.SettleGroup, spec.Name, *spec.Enforce, spec.Users, committee)
	}
	f.storeCatalogLocked(spec.Name, &placement{
		shard:     shard,
		lane:      lane,
		group:     spec.SettleGroup,
		primary:   committee[0],
		committee: committee,
		users:     append([]wire.NodeID(nil), spec.Users...),
	})
	st.names[spec.Name] = struct{}{}
	return nil
}

// storeCatalogLocked copy-on-writes the catalog. Caller holds f.mu.
func (f *Market) storeCatalogLocked(name string, pl *placement) {
	old := *f.catalog.Load()
	next := make(map[string]*placement, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if pl == nil {
		delete(next, name)
	} else {
		next[name] = pl
	}
	f.catalog.Store(&next)
}

// claimAuction marks an auction as closing and returns its placement, or
// nil if unknown or already claimed by a concurrent close/drain. The
// placement stays in the catalog (outcomes keep dispatching) until
// finishClose removes it.
func (f *Market) claimAuction(name string) *placement {
	f.mu.Lock()
	defer f.mu.Unlock()
	pl := (*f.catalog.Load())[name]
	if pl == nil || pl.closing {
		return nil
	}
	next := *pl
	next.closing = true
	f.storeCatalogLocked(name, &next)
	return pl
}

// finishClose removes a claimed auction from the catalog, its shard and
// its settle group.
func (f *Market) finishClose(name string, pl *placement) {
	if pl.group != "" {
		f.settler.RemoveMember(pl.group, name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.storeCatalogLocked(name, nil)
	if st := f.shards[pl.shard]; st != nil {
		delete(st.names, name)
	}
}

// CloseAuction removes the auction from the catalog and stops it hard on
// every committee member; rounds in flight end in ⊥.
func (f *Market) CloseAuction(name string) error {
	pl := f.claimAuction(name)
	if pl == nil {
		return fmt.Errorf("%w: %q", market.ErrUnknownAuction, name)
	}
	defer f.finishClose(name, pl)
	return f.forEachMember(pl, func(mk *market.Market) error {
		return mk.CloseAuction(name)
	})
}

// DrainAuction gracefully retires an auction on every committee member:
// gates close immediately, every round holding an admitted bid still emits
// (and settles), then the auction closes. Bounded by ctx.
func (f *Market) DrainAuction(ctx context.Context, name string) error {
	pl := f.claimAuction(name)
	if pl == nil {
		return fmt.Errorf("%w: %q", market.ErrUnknownAuction, name)
	}
	defer f.finishClose(name, pl)
	return f.forEachMember(pl, func(mk *market.Market) error {
		return mk.DrainAuction(ctx, name)
	})
}

// forEachMember runs op concurrently on every committee member's market
// and joins the errors.
func (f *Market) forEachMember(pl *placement, op func(*market.Market) error) error {
	f.mu.Lock()
	markets := make([]*market.Market, 0, len(pl.committee))
	for _, id := range pl.committee {
		if n := f.nodes[id]; n != nil {
			markets = append(markets, n.market)
		}
	}
	f.mu.Unlock()
	errs := make([]error, len(markets))
	var wg sync.WaitGroup
	for i, mk := range markets {
		wg.Add(1)
		go func(i int, mk *market.Market) {
			defer wg.Done()
			errs[i] = op(mk)
		}(i, mk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// auctionsOn lists the open (unclaimed) auctions placed on a shard.
func (f *Market) auctionsOn(shard int) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.shards[shard]
	if st == nil {
		return nil
	}
	names := make([]string, 0, len(st.names))
	for name := range st.names {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CloseShard hard-closes every auction on the shard, retires it from the
// router and releases committee nodes that serve no other shard.
func (f *Market) CloseShard(shard int) error {
	return f.retireShard(nil, shard)
}

// DrainShard gracefully retires a shard: no new auctions may place on it,
// its open auctions drain (bounded by ctx), then it closes.
func (f *Market) DrainShard(ctx context.Context, shard int) error {
	f.mu.Lock()
	st := f.shards[shard]
	if st == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownShard, shard)
	}
	st.draining = true
	f.mu.Unlock()
	return f.retireShard(ctx, shard)
}

// retireShard is the shared shard teardown: ctx == nil closes auctions
// hard, otherwise they drain first.
func (f *Market) retireShard(ctx context.Context, shard int) error {
	f.mu.Lock()
	if f.shards[shard] == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownShard, shard)
	}
	f.mu.Unlock()

	var errs []error
	for _, name := range f.auctionsOn(shard) {
		var err error
		if ctx != nil {
			err = f.DrainAuction(ctx, name)
		} else {
			err = f.CloseAuction(name)
		}
		if err != nil && !errors.Is(err, market.ErrUnknownAuction) {
			errs = append(errs, err)
		}
	}

	f.mu.Lock()
	st := f.shards[shard]
	if st == nil {
		f.mu.Unlock()
		return errors.Join(errs...)
	}
	delete(f.shards, shard)
	if err := f.router.RemoveShard(shard); err != nil {
		errs = append(errs, err)
	}
	var release []*market.Market
	for _, id := range st.spec.Providers {
		if n := f.nodes[id]; n != nil {
			if n.refs--; n.refs == 0 {
				release = append(release, n.market)
				delete(f.nodes, id)
			}
		}
	}
	f.mu.Unlock()
	for _, mk := range release {
		if err := mk.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Names lists the open auctions across all shards, sorted.
func (f *Market) Names() []string {
	catalog := *f.catalog.Load()
	names := make([]string, 0, len(catalog))
	for name, pl := range catalog {
		if !pl.closing {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// AuctionHandles returns the per-committee-member market handles of an
// open auction (first member first) — the provider-side views a harness
// needs for residual-state checks.
func (f *Market) AuctionHandles(name string) ([]*market.Auction, bool) {
	pl := (*f.catalog.Load())[name]
	if pl == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	handles := make([]*market.Auction, 0, len(pl.committee))
	for _, id := range pl.committee {
		n := f.nodes[id]
		if n == nil {
			return nil, false
		}
		a, ok := n.market.Auction(name)
		if !ok {
			return nil, false
		}
		handles = append(handles, a)
	}
	return handles, true
}

// Close shuts the whole federation: every shard is closed hard and every
// node market released. The network itself is left to its owner.
func (f *Market) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	shards := make([]int, 0, len(f.shards))
	for s := range f.shards {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	f.mu.Unlock()
	var errs []error
	for _, s := range shards {
		if err := f.retireShard(nil, s); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
