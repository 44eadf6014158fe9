package market

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/core"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// ErrMarketClosed reports use of a closed Market.
var ErrMarketClosed = errors.New("market: closed")

// ErrUnknownAuction reports an operation on an auction that is not open.
var ErrUnknownAuction = errors.New("market: unknown auction")

// ErrLaneCollision reports two distinct auction names hashing to the same
// lane. The caller resolves it by setting an explicit AuctionSpec.Lane —
// on every provider, since lane assignment must be agreed.
var ErrLaneCollision = errors.New("market: lane collision")

// DefaultAdmissionWindow is how many rounds ahead of the last completed
// round bids are admitted when neither the market nor the auction spec says
// otherwise. It comfortably covers the default pipeline depth while keeping
// a flooding bidder's buffered footprint bounded.
const DefaultAdmissionWindow = 8

// DefaultSweepEvery is the default enforcement-sweep cadence: every N
// completed rounds of an enforced auction, expired reservations on its
// gateways are reclaimed eagerly (long-running markets must not accumulate
// dead reservations between externally-triggered sweeps).
const DefaultSweepEvery = 32

// LaneForName deterministically assigns a lane in [1, wire.MaxLane] to an
// auction name (FNV-1a folded into the lane space; lane 0 — the default
// lane of non-market traffic — is never returned). Every provider computes
// the same lane from the same name, so independently-configured markets
// agree on lane assignment with no coordination. Distinct names may
// collide; OpenAuction then fails with ErrLaneCollision and the deployment
// pins an explicit lane for one of them.
func LaneForName(name string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return h.Sum32()%wire.MaxLane + 1
}

// EnforceTarget wires an auction's accepted outcomes to the external
// mechanism of §3.2: payments settle on Ledger (atomically, ⊥ pays
// nothing), the allocation becomes reservations on Gateways. Different
// auctions may share a Ledger and even Gateways — enforcement is
// internally locked — or own disjoint sets.
type EnforceTarget struct {
	// Ledger is the settlement ledger (required).
	Ledger *ledger.Ledger
	// Gateways are index-aligned with the auction's provider axis
	// (required, one per provider).
	Gateways []*gateway.Gateway
	// Escrow is the account users pay into and providers are paid from.
	Escrow wire.NodeID
	// TTL is the reservation lifetime (one auction period).
	TTL time.Duration
}

// AuctionSpec describes one auction of the catalog. All providers of a
// deployment must open the auction with an equivalent spec (same name,
// lane, users, and session options), exactly as all providers of a single
// auction must agree on its configuration.
type AuctionSpec struct {
	// Name identifies the auction in the catalog ("gateway-7",
	// "band-5GHz", "vm-large"…). Required, unique within the market.
	Name string
	// Lane pins the auction's wire lane. 0 (the default) derives the lane
	// from Name via LaneForName; set it explicitly only to resolve a
	// ErrLaneCollision, and identically on every provider.
	Lane uint32
	// Users are the auction's bidders (consensus-slot aligned, like
	// core.Config.Users). Required.
	Users []wire.NodeID
	// Providers pins this auction's committee: the provider subset that
	// runs its session. Empty means the market's default fleet. The
	// market's own node must be a member, and — like Name/Lane/Users —
	// every committee member must open the auction with the same committee.
	// Distinct auctions of one market may run on distinct committees; this
	// is what lets a federation place many provider committees behind one
	// catalog.
	Providers []wire.NodeID
	// StartRound is the auction's first round (0 means 1). It is spelled
	// here rather than in Options because the admission gate must know it.
	StartRound uint64
	// AdmissionWindow overrides the market's admission window for this
	// auction (0 = market default): how many rounds ahead bids are admitted.
	AdmissionWindow int
	// Options configure the auction's session: mechanism, k, bid window,
	// round cadence (pipeline depth), round limit… (core.WithStartRound in
	// Options is overridden by StartRound above.)
	Options []core.SessionOption
	// Enforce, if non-nil, applies accepted outcomes to gateways and a
	// ledger. Nil means outcomes are only streamed (OnOutcome / stats).
	Enforce *EnforceTarget
}

// settings is the target of the market's functional options.
type settings struct {
	admissionWindow int
	sweepEvery      int
	onOutcome       func(auction string, out core.RoundOutcome)

	errs []error
}

// Option configures a Market at Open time. Like session options, bad
// values surface as one joined error from Open, never a panic.
type Option func(*settings)

// WithAdmissionWindow sets the default number of rounds ahead of the last
// completed round for which bids are admitted (per auction; specs can
// override it).
func WithAdmissionWindow(n int) Option {
	return func(s *settings) {
		if n < 1 {
			s.errs = append(s.errs, fmt.Errorf("%w: admission window must be >= 1 (got %d)", core.ErrConfig, n))
			return
		}
		s.admissionWindow = n
	}
}

// WithSweepEvery sets the enforcement sweep cadence: every n completed
// rounds of an enforced auction its gateways are swept for expired
// reservations (0 disables the hook).
func WithSweepEvery(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.errs = append(s.errs, fmt.Errorf("%w: negative sweep cadence (%d)", core.ErrConfig, n))
			return
		}
		s.sweepEvery = n
	}
}

// WithOnOutcome installs a callback invoked for every round outcome of
// every auction (after enforcement), from the auction's consumer
// goroutine. It must not block: it runs on the outcome path and a slow
// callback backpressures that auction's rounds.
func WithOnOutcome(f func(auction string, out core.RoundOutcome)) Option {
	return func(s *settings) { s.onOutcome = f }
}

// Market multiplexes many named auctions over one shared transport
// attachment of a provider node. Each auction runs its own core.Session on
// its own wire lane: rounds of different auctions pipeline independently
// and a ⊥ in one auction never touches another.
type Market struct {
	mux       *Mux
	providers []wire.NodeID
	cfg       settings

	// lanes is the admission hot path's lane → (committee, gate) index
	// (copy-on-write, read per inbound envelope without locks).
	lanes atomic.Pointer[map[uint32]*laneEntry]
	// universe is every provider ID this market may hear from on any lane:
	// the default fleet plus every per-auction committee and every
	// RegisterProviders addition. Traffic from the universe may park on a
	// not-yet-open lane; anything else is dropped at the door.
	universe atomic.Pointer[map[wire.NodeID]struct{}]

	mu     sync.Mutex
	byName map[string]*Auction
	byLane map[uint32]*Auction
	closed bool
	wg     sync.WaitGroup

	swept metrics.Counter // expired reservations reclaimed by sweep hooks
	// retired is the Add of every closed auction's final counters (guarded
	// by mu): Stats starts from it, so market totals survive a close.
	retired Counters
}

// laneEntry is one open lane's admission state: the committee whose
// protocol traffic passes unconditionally, and the bid gate for everyone
// else.
type laneEntry struct {
	committee map[wire.NodeID]struct{}
	gate      *gate
}

// Open starts an empty market for a provider node over conn. conn must be
// the node's single attachment to the deployment's network; every auction
// subsequently opened shares it. The provider set is the fleet that runs
// every auction of this market.
func Open(conn transport.Conn, providers []wire.NodeID, opts ...Option) (*Market, error) {
	cfg := settings{
		admissionWindow: DefaultAdmissionWindow,
		sweepEvery:      DefaultSweepEvery,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.errs) > 0 {
		return nil, errors.Join(cfg.errs...)
	}
	if len(providers) == 0 {
		return nil, fmt.Errorf("%w: market needs providers", core.ErrConfig)
	}
	set := make(map[wire.NodeID]struct{}, len(providers))
	for _, p := range providers {
		set[p] = struct{}{}
	}
	if _, ok := set[conn.Self()]; !ok {
		return nil, fmt.Errorf("%w: node %d is not a configured provider", core.ErrConfig, conn.Self())
	}
	m := &Market{
		mux:       NewMux(conn),
		providers: append([]wire.NodeID(nil), providers...),
		cfg:       cfg,
		byName:    make(map[string]*Auction),
		byLane:    make(map[uint32]*Auction),
	}
	empty := make(map[uint32]*laneEntry)
	m.lanes.Store(&empty)
	m.universe.Store(&set)
	m.mux.SetAdmission(m.admitEnvelope)
	return m, nil
}

// RegisterProviders widens the market's provider universe: traffic from
// these nodes may park on lanes whose auction is not open here yet (the
// open race every deployment has). OpenAuction registers its committee
// automatically; call this ahead of time when committee traffic can arrive
// before the local OpenAuction — a federation does, for every committee its
// node serves.
func (m *Market) RegisterProviders(ids ...wire.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registerProvidersLocked(ids)
}

// registerProvidersLocked copy-on-writes the universe. Caller holds m.mu.
func (m *Market) registerProvidersLocked(ids []wire.NodeID) {
	old := *m.universe.Load()
	missing := 0
	for _, id := range ids {
		if _, ok := old[id]; !ok {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	next := make(map[wire.NodeID]struct{}, len(old)+missing)
	for k, v := range old {
		next[k] = v
	}
	for _, id := range ids {
		next[id] = struct{}{}
	}
	m.universe.Store(&next)
}

// Self returns the provider's node ID.
func (m *Market) Self() wire.NodeID { return m.mux.Self() }

// Providers returns the market's provider fleet (shared; do not modify).
func (m *Market) Providers() []wire.NodeID { return m.providers }

// admitEnvelope is the mux's admission gate. On an open lane, committee
// traffic (protocol blocks, own-bid broadcasts, aborts) always passes and
// bidder traffic passes only as a bid submission admitted by the auction's
// gate — so bidders cannot inject protocol or control messages into market
// lanes, bid ingest beyond round capacity is dropped at the door, and one
// auction's committee cannot reach into another committee's lane. On a lane
// not open here yet, traffic from the provider universe may park for the
// imminent OpenAuction; everything else is dropped.
func (m *Market) admitEnvelope(lane uint32, env wire.Envelope) bool {
	if e := (*m.lanes.Load())[lane]; e != nil {
		if _, ok := e.committee[env.From]; ok {
			return true
		}
		if env.Tag.Block != wire.BlockBidSubmit {
			return false
		}
		return e.gate.admit(env.From, env.Tag.Round)
	}
	_, ok := (*m.universe.Load())[env.From]
	return ok
}

// OpenAuction adds an auction to the catalog and starts its session.
// Every provider of the market must open it with an equivalent spec.
func (m *Market) OpenAuction(spec AuctionSpec) (*Auction, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("%w: auction needs a name", core.ErrConfig)
	}
	lane := spec.Lane
	if lane == 0 {
		lane = LaneForName(spec.Name)
	}
	if lane > wire.MaxLane {
		return nil, fmt.Errorf("%w: lane %d out of range (max %d)", core.ErrConfig, lane, wire.MaxLane)
	}
	startRound := spec.StartRound
	if startRound == 0 {
		startRound = 1
	}
	window := spec.AdmissionWindow
	if window == 0 {
		window = m.cfg.admissionWindow
	}
	committee := m.providers
	if len(spec.Providers) > 0 {
		committee = append([]wire.NodeID(nil), spec.Providers...)
		member := false
		for _, p := range committee {
			if p == m.Self() {
				member = true
				break
			}
		}
		if !member {
			return nil, fmt.Errorf("%w: auction %q: node %d is not in its committee",
				core.ErrConfig, spec.Name, m.Self())
		}
	}
	committeeSet := make(map[wire.NodeID]struct{}, len(committee))
	for _, p := range committee {
		committeeSet[p] = struct{}{}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrMarketClosed
	}
	if _, dup := m.byName[spec.Name]; dup {
		return nil, fmt.Errorf("market: auction %q already open", spec.Name)
	}
	if other, dup := m.byLane[lane]; dup {
		return nil, fmt.Errorf("%w: auctions %q and %q both map to lane %d (pin an explicit Lane on every provider)",
			ErrLaneCollision, other.name, spec.Name, lane)
	}

	// Make the committee parkable before the session exists: its peers'
	// first envelopes can already be in flight.
	m.registerProvidersLocked(committee)

	lc, err := m.mux.Lane(lane)
	if err != nil {
		return nil, err
	}
	opts := make([]core.SessionOption, 0, len(spec.Options)+1)
	opts = append(opts, spec.Options...)
	opts = append(opts, core.WithStartRound(startRound))
	sess, err := core.OpenSession(lc, committee, spec.Users, opts...)
	if err != nil {
		_ = lc.Close()
		return nil, fmt.Errorf("market: auction %q: %w", spec.Name, err)
	}

	a := &Auction{
		market:    m,
		name:      spec.Name,
		lane:      lane,
		session:   sess,
		users:     append([]wire.NodeID(nil), spec.Users...),
		providers: committee,
		gate:      newGate(spec.Users, startRound, window, lane, m.Self()),
		meter:     metrics.NewMeter(nil),
		done:      make(chan struct{}),
	}
	if spec.Enforce != nil {
		a.enforcer = &gateway.Enforcer{
			Ledger:   spec.Enforce.Ledger,
			Gateways: spec.Enforce.Gateways,
			Escrow:   spec.Enforce.Escrow,
			TTL:      spec.Enforce.TTL,
		}
	}
	m.byName[a.name] = a
	m.byLane[a.lane] = a
	m.storeLaneLocked(a.lane, &laneEntry{committee: committeeSet, gate: a.gate})
	m.wg.Add(1)
	go a.consume()
	return a, nil
}

// storeLaneLocked copy-on-writes the admission index. Caller holds m.mu.
func (m *Market) storeLaneLocked(lane uint32, e *laneEntry) {
	old := *m.lanes.Load()
	next := make(map[uint32]*laneEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if e == nil {
		delete(next, lane)
	} else {
		next[lane] = e
	}
	m.lanes.Store(&next)
}

// Auction returns the named open auction.
func (m *Market) Auction(name string) (*Auction, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byName[name]
	return a, ok
}

// Names lists the open auctions, sorted.
func (m *Market) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.byName))
	for name := range m.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CloseAuction removes the auction from the catalog and stops it hard:
// rounds in flight end in ⊥ (broadcast loudly, as Session.Close does) and
// the lane is freed for reuse.
func (m *Market) CloseAuction(name string) error {
	m.mu.Lock()
	a, ok := m.byName[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAuction, name)
	}
	return m.closeAuction(a)
}

func (m *Market) closeAuction(a *Auction) error {
	a.gate.drain() // stop admitting before the teardown races in
	err := a.session.Close()
	<-a.done // consumer drains the outcome stream to exhaustion
	m.mu.Lock()
	if m.byName[a.name] == a {
		delete(m.byName, a.name)
		delete(m.byLane, a.lane)
		m.storeLaneLocked(a.lane, nil)
		// The consumer has exited, so these are the auction's final counters.
		final := a.snapshot().Counters
		final.RoundsPerSec, final.QueueDepth = 0, 0 // levels of an open auction, not totals
		m.retired.Add(final)
	}
	m.mu.Unlock()
	return err
}

// DrainAuction gracefully retires an auction: the admission gate closes
// immediately (new bids are dropped), the market waits — bounded by ctx —
// until every round holding an admitted bid has emitted its outcome, then
// closes the auction. Rounds past the last admitted bid abort as ⊥ with
// nobody listening. On ctx expiry the auction is closed hard anyway and
// ctx's error returned.
func (m *Market) DrainAuction(ctx context.Context, name string) error {
	m.mu.Lock()
	a, ok := m.byName[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAuction, name)
	}
	target := a.gate.drain()
	var waitErr error
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
wait:
	for a.lastEmitted.Load() < target {
		select {
		case <-a.done: // outcome stream ended on its own (round limit, close)
			break wait
		case <-ctx.Done():
			waitErr = ctx.Err()
			break wait
		case <-poll.C:
		}
	}
	if err := m.closeAuction(a); err != nil && waitErr == nil {
		waitErr = err
	}
	return waitErr
}

// Close shuts the whole market: every auction is closed (in-flight rounds
// abort loudly), then the shared connection is released.
func (m *Market) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return m.mux.Close()
	}
	m.closed = true
	auctions := make([]*Auction, 0, len(m.byName))
	for _, a := range m.byName {
		auctions = append(auctions, a)
	}
	m.mu.Unlock()
	var firstErr error
	for _, a := range auctions {
		if err := m.closeAuction(a); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.wg.Wait()
	if err := m.mux.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Auction is one open auction of the catalog (the provider-side handle).
type Auction struct {
	market    *Market
	name      string
	lane      uint32
	session   *core.Session
	users     []wire.NodeID
	providers []wire.NodeID // this auction's committee
	gate      *gate

	enforcer *gateway.Enforcer

	rounds      metrics.Counter
	accepted    metrics.Counter
	aborted     metrics.Counter
	enforceErrs metrics.Counter
	meter       *metrics.Meter
	lastEmitted atomic.Uint64

	// latency is the always-on outcome-latency histogram (nanoseconds,
	// bid collection through delivery); abortCodes break ⊥ rounds down by
	// typed cause. Both are lock-free and recorded on the outcome path
	// regardless of the trace flag.
	latency    metrics.Histogram
	abortCodes [proto.NumAbortCodes]metrics.Counter

	done chan struct{}
}

// Name returns the auction's catalog name.
func (a *Auction) Name() string { return a.name }

// Lane returns the auction's wire lane.
func (a *Auction) Lane() uint32 { return a.lane }

// Providers returns the auction's committee (shared; do not modify).
func (a *Auction) Providers() []wire.NodeID { return a.providers }

// Session exposes the underlying session (own-bid updates via SetBid,
// raw-message scripting via Session.Peer in tests).
func (a *Auction) Session() *core.Session { return a.session }

// consume is the auction's outcome loop: it meters rounds, advances the
// admission window, fans accepted outcomes out to the enforcement target,
// sweeps expired reservations on cadence and forwards to the market's
// OnOutcome callback.
func (a *Auction) consume() {
	defer a.market.wg.Done()
	defer close(a.done)
	sweepEvery := a.market.cfg.sweepEvery
	sinceSweep := 0
	for out := range a.session.Outcomes() {
		// The round is complete the moment it emerges: slide the admission
		// window first, so enforcement latency never starves honest bidders
		// running at the pipeline's natural lookahead.
		a.gate.roundDone(out.Round)
		if out.Err == nil && a.enforcer != nil {
			if err := a.enforcer.Enforce(out.Round, out.Outcome, a.users, a.providers); err != nil {
				a.enforceErrs.Inc()
			}
		}
		a.lastEmitted.Store(out.Round)
		if a.enforcer != nil && sweepEvery > 0 {
			if sinceSweep++; sinceSweep >= sweepEvery {
				sinceSweep = 0
				a.market.swept.Add(int64(a.enforcer.Sweep()))
			}
		}
		if cb := a.market.cfg.onOutcome; cb != nil {
			cb(a.name, out)
		}
		// Counters move last, rounds last of all: once Stats reports a round
		// counted, its enforcement, sweep and callback have all completed.
		a.latency.RecordDuration(out.Latency)
		if out.Err != nil {
			a.aborted.Inc()
			a.abortCodes[proto.AbortCodeOf(out.Err)].Inc()
		} else {
			a.accepted.Inc()
		}
		a.meter.Mark(1)
		a.rounds.Inc()
	}
}
