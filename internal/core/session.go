package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/auction"
	"distauction/internal/proto"
	"distauction/internal/taskgraph"
	"distauction/internal/trace"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// RoundOutcome is one round's result as streamed by sessions. Err is nil
// when the outcome was accepted; for ⊥ rounds it matches proto.ErrAborted
// (provider side) or ErrOutcomeBot (bidder side). A ⊥ round does not end
// the session: the next round proceeds normally.
type RoundOutcome struct {
	Round   uint64
	Outcome auction.Outcome
	// Err is nil for an accepted outcome, else the round's latched
	// *proto.AbortError (errors.Is(Err, proto.ErrAborted)): the one abort,
	// code and culprit every counter, trace and peer of this provider reads.
	Err error
	// Latency is the round's wall-clock time on this provider, bid
	// collection through outcome delivery (0 for rounds failed before
	// collection started). Markets feed it into their latency histograms.
	Latency time.Duration
}

// sessionSettings is the target of the functional options. The zero-ish
// defaults come from defaultSettings; Open validates the final state.
type sessionSettings struct {
	k             int
	mechanism     func() (Mechanism, error)
	bidWindow     time.Duration
	roundTimeout  time.Duration
	maxConcurrent int
	startRound    uint64
	roundLimit    uint64
	outcomeBuffer int
	ownBid        *auction.ProviderBid

	errs []error
}

func defaultSettings() sessionSettings {
	return sessionSettings{
		maxConcurrent: 2,
		roundTimeout:  2 * time.Minute,
		startRound:    1,
		outcomeBuffer: 8,
	}
}

func (s *sessionSettings) fail(format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf("%w: "+format, append([]any{ErrConfig}, args...)...))
}

// SessionOption configures a session at Open time. Options are validated
// together when the session opens; a bad option surfaces as an ErrConfig
// error from Open, never as a panic or a silently ignored value.
type SessionOption func(*sessionSettings)

// WithK sets the coalition bound k (the session tolerates coalitions of up
// to k providers; requires m > 2k providers).
func WithK(k int) SessionOption {
	return func(s *sessionSettings) {
		if k < 0 {
			s.fail("negative k (%d)", k)
			return
		}
		s.k = k
	}
}

// WithMechanism selects the allocation mechanism directly.
func WithMechanism(m Mechanism) SessionOption {
	return func(s *sessionSettings) {
		if m == nil {
			s.fail("nil mechanism")
			return
		}
		s.mechanism = func() (Mechanism, error) { return m, nil }
	}
}

// WithMechanismName selects a registered mechanism by name with a zero
// spec. Use WithNamedMechanism to pass mechanism parameters.
func WithMechanismName(name string) SessionOption {
	return WithNamedMechanism(name, MechanismSpec{})
}

// WithNamedMechanism selects a registered mechanism by name and builds it
// from spec at Open time.
func WithNamedMechanism(name string, spec MechanismSpec) SessionOption {
	return func(s *sessionSettings) {
		s.mechanism = func() (Mechanism, error) { return NewMechanism(name, spec) }
	}
}

// WithBidWindow sets how long each round waits for bid submissions before
// substituting neutral bids.
func WithBidWindow(d time.Duration) SessionOption {
	return func(s *sessionSettings) {
		if d <= 0 {
			s.fail("non-positive bid window (%v)", d)
			return
		}
		s.bidWindow = d
	}
}

// WithRoundTimeout bounds phases 2–5 of each round (agreement, allocation,
// delivery); a round that exceeds it ends in ⊥ without wedging the session.
// Zero disables the bound.
func WithRoundTimeout(d time.Duration) SessionOption {
	return func(s *sessionSettings) {
		if d < 0 {
			s.fail("negative round timeout (%v)", d)
			return
		}
		s.roundTimeout = d
	}
}

// WithMaxConcurrentRounds sets the pipeline depth: how many rounds may be
// in flight at once. Depth 1 disables pipelining; depth 2 (the default)
// overlaps round r+1's bid collection with round r's allocator.
func WithMaxConcurrentRounds(n int) SessionOption {
	return func(s *sessionSettings) {
		if n < 1 {
			s.fail("max concurrent rounds must be >= 1 (got %d)", n)
			return
		}
		s.maxConcurrent = n
	}
}

// WithStartRound sets the first round number (default 1). All participants
// of a deployment must agree on it.
func WithStartRound(r uint64) SessionOption {
	return func(s *sessionSettings) {
		if r == 0 {
			s.fail("start round must be >= 1 (round numbers are 1-based)")
			return
		}
		s.startRound = r
	}
}

// WithRoundLimit stops the session after n rounds, closing the outcomes
// channel (0, the default, means run until Close).
func WithRoundLimit(n uint64) SessionOption {
	return func(s *sessionSettings) { s.roundLimit = n }
}

// WithOutcomeBuffer sets the outcomes channel capacity. A session applies
// backpressure once the buffer fills: consume the channel or rounds stall.
func WithOutcomeBuffer(n int) SessionOption {
	return func(s *sessionSettings) {
		if n < 0 {
			s.fail("negative outcome buffer (%d)", n)
			return
		}
		s.outcomeBuffer = n
	}
}

// WithProviderBid sets the provider's initial own bid for double-sided
// mechanisms (see Session.SetBid for per-round updates).
func WithProviderBid(bid auction.ProviderBid) SessionOption {
	return func(s *sessionSettings) {
		b := bid
		s.ownBid = &b
	}
}

// resolve finalises the settings into a validated Config.
func (s *sessionSettings) resolve(providers, users []wire.NodeID) (Config, error) {
	if len(s.errs) > 0 {
		return Config{}, errors.Join(s.errs...)
	}
	if s.mechanism == nil {
		return Config{}, fmt.Errorf("%w: no mechanism (use WithMechanism or WithMechanismName)", ErrConfig)
	}
	mech, err := s.mechanism()
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Providers: providers,
		Users:     users,
		K:         s.k,
		Mechanism: mech,
		BidWindow: s.bidWindow,
	}.withDefaults()
	return cfg, cfg.Validate()
}

// Session is a provider node's long-running auction engine. Opened once, it
// runs rounds continuously: bids are accepted as they arrive, round numbers
// advance automatically, round r+1's bid collection is pipelined with round
// r's allocator (up to WithMaxConcurrentRounds rounds in flight), and each
// round's buffered protocol state is reclaimed as soon as every earlier
// round has completed. Per-round results stream from Outcomes in round
// order; a ⊥ round is reported with a non-nil Err and the session moves on.
type Session struct {
	cfg      Config
	settings sessionSettings
	peer     *proto.Peer

	// exec runs the mechanism's task graph, compiled once at open, on a
	// persistent worker set: the same round-generic graph runs every round,
	// with the round's bids passed through the executor environment.
	// usesCoin says the graph draws the coin at all, declared or on demand:
	// each round then starts its own reservoir, which pre-tosses coinPlan,
	// the graph's declared draws.
	exec     *taskgraph.Executor
	usesCoin bool
	coinPlan []uint32

	// bidTimer is the reusable bid-window timer. Rounds open strictly one at
	// a time (the scheduler serialises phases 0–1), so a single timer
	// replaces a per-round context.WithTimeout allocation on the hot path.
	bidTimer *time.Timer

	ownBid   atomic.Pointer[auction.ProviderBid]
	outcomes chan RoundOutcome
	results  chan RoundOutcome

	ctx       context.Context
	cancel    context.CancelFunc
	closing   chan struct{}
	closeOnce sync.Once
	emitOnce  sync.Once
	wg        sync.WaitGroup

	mu        sync.Mutex
	inFlight  map[uint64]bool // rounds started but not yet completed
	delivered map[uint64]bool // live rounds whose result already went to bidders
	ended     uint64          // all rounds <= ended are reclaimed (and were delivered)
}

// OpenSession validates the options and starts the session engine for a
// provider node. conn must belong to one of providers; all participants of
// a deployment must agree on the provider set, user set, k, mechanism and
// start round. Every configuration error — including a mechanism whose task
// graph does not build for this deployment — is reported here, matching
// ErrConfig, before conn is touched or any goroutine starts.
func OpenSession(conn transport.Conn, providers, users []wire.NodeID, opts ...SessionOption) (*Session, error) {
	settings := defaultSettings()
	for _, opt := range opts {
		opt(&settings)
	}
	cfg, err := settings.resolve(providers, users)
	if err != nil {
		return nil, err
	}
	sorted := proto.SortNodes(append([]wire.NodeID(nil), cfg.Providers...))
	if !proto.ContainsNode(sorted, conn.Self()) {
		return nil, fmt.Errorf("%w: node %d is not a configured provider", ErrConfig, conn.Self())
	}
	graph, err := cfg.Mechanism.Graph(GraphConfig{Providers: sorted, K: cfg.K})
	if err != nil {
		return nil, fmt.Errorf("%w: mechanism %q: task graph: %v", ErrConfig, cfg.Mechanism.Name(), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	peer := proto.NewPeer(conn, sorted)
	s := &Session{
		cfg:      cfg,
		settings: settings,
		peer:     peer,
		// The executor's depth matches the round pipeline so every
		// in-flight round has its own task workers.
		exec:      taskgraph.NewExecutor(peer, graph, settings.maxConcurrent),
		usesCoin:  graph.UsesCoin(),
		coinPlan:  graph.CoinInstances(),
		outcomes:  make(chan RoundOutcome, settings.outcomeBuffer),
		results:   make(chan RoundOutcome, settings.maxConcurrent+1),
		ctx:       ctx,
		cancel:    cancel,
		closing:   make(chan struct{}),
		inFlight:  make(map[uint64]bool),
		delivered: make(map[uint64]bool),
	}
	if settings.ownBid != nil {
		s.ownBid.Store(settings.ownBid)
	}
	s.wg.Add(2)
	go s.schedule()
	go s.emit()
	return s, nil
}

// Self returns the provider's node ID.
func (s *Session) Self() wire.NodeID { return s.peer.Self() }

// Peer exposes the protocol peer (audit and deviation tooling script raw
// messages through it).
func (s *Session) Peer() *proto.Peer { return s.peer }

// Outcomes streams one RoundOutcome per round, in round order. The channel
// closes when the round limit is reached or the session is closed. The
// session applies backpressure through this channel: stop consuming it and
// rounds stall once the buffer fills.
func (s *Session) Outcomes() <-chan RoundOutcome { return s.outcomes }

// SetBid updates the provider's own bid, used by every round that opens
// after the call; a round already open keeps the bid it opened with
// (double-sided mechanisms only; ignored otherwise).
func (s *Session) SetBid(bid auction.ProviderBid) {
	b := bid
	s.ownBid.Store(&b)
}

// ClearBid reverts the provider to the neutral bid, likewise from the next
// round that opens.
func (s *Session) ClearBid() { s.ownBid.Store(nil) }

// Close stops the session. Rounds in flight end in ⊥: the abort is
// broadcast to peer providers and reported to bidders, so no participant
// blocks on a half-finished round. The outcomes channel is closed after the
// in-flight rounds drain. Close is idempotent.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		close(s.closing)
		s.cancel()
		// Declare ⊥ for every round still in flight *before* tearing the
		// peer down, so other providers and bidders learn the abort instead
		// of timing out.
		s.mu.Lock()
		rounds := make([]uint64, 0, len(s.inFlight))
		for r := range s.inFlight {
			rounds = append(rounds, r)
		}
		s.mu.Unlock()
		for _, r := range rounds {
			s.failRound(r, errSessionClosed)
		}
		s.wg.Wait()
		// All round workers have returned, so no executor Run is in flight
		// and the worker set can drain without blocking; the scheduler has
		// returned too, so nothing resets the bid timer anymore.
		s.exec.Close()
		if s.bidTimer != nil {
			s.bidTimer.Stop()
		}
		s.closeOutcomes()
	})
	return s.peer.Close()
}

func (s *Session) closeOutcomes() {
	s.emitOnce.Do(func() { close(s.outcomes) })
}

// trackRound registers a round as in flight, unless the session is already
// closing — the check and the registration share s.mu with Close's
// in-flight snapshot, so a round either makes the snapshot (and is aborted
// loudly) or is never started; no round can slip between the two.
func (s *Session) trackRound(r uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closing:
		return false
	default:
	}
	s.inFlight[r] = true
	return true
}

// report marks a round completed and hands its result to the emitter. The
// send never drops and never deadlocks: results closes only after every
// reporter has returned (schedule's defer), and emit consumes results to
// exhaustion even while shutting down (drain).
func (s *Session) report(out RoundOutcome) {
	s.mu.Lock()
	delete(s.inFlight, out.Round)
	s.mu.Unlock()
	s.results <- out
}

// failRound guarantees that round r ends in ⊥ everywhere and returns the
// round's abort: cause declares it unless the round already aborted (a
// fresh abort is broadcast to peer providers), and the ⊥ result is
// delivered to bidders (at most once per round).
func (s *Session) failRound(r uint64, cause error) error {
	err := s.peer.Fail(r, "core", cause)
	s.deliverResult(r, false, nil)
	return err
}

// errSessionClosed is the cause of the rounds Close finds in flight.
var errSessionClosed = fmt.Errorf("session closed (%w)", context.Canceled)

// roundWork is one collected round handed from the scheduler to a round
// worker: phases 0–1 are done, phases 2–5 remain.
type roundWork struct {
	r      uint64
	inputs [][]byte
	coins  roundCoin // the round's coin, tossing since the round opened
	began  time.Time // when phase 0 started; stamps the round's latency
}

// schedule is the round scheduler: it serialises phase 0–1 (own-bid
// broadcast and bid collection) across rounds — so bid windows are paced —
// and hands each collected round to one of maxConcurrent persistent round
// workers for phases 2–5, overlapping the next round's collection with the
// previous rounds' allocators. The workers live for the whole session
// instead of being spawned per round, so a steady-state round costs a
// channel handoff, not a goroutine start.
func (s *Session) schedule() {
	defer s.wg.Done()
	slots := make(chan struct{}, s.settings.maxConcurrent)
	work := make(chan roundWork)
	var workers sync.WaitGroup
	workers.Add(s.settings.maxConcurrent)
	for i := 0; i < s.settings.maxConcurrent; i++ {
		go s.roundWorker(work, slots, &workers)
	}
	defer func() {
		close(work)
		workers.Wait()
		// All rounds done. A finite session closes its results stream so the
		// emitter can flush and close Outcomes.
		close(s.results)
	}()

	start, limit := s.settings.startRound, s.settings.roundLimit
	for r := start; limit == 0 || r < start+limit; r++ {
		select {
		case slots <- struct{}{}:
		case <-s.closing:
			return
		}
		if !s.trackRound(r) {
			return
		}

		began := time.Now()
		span := trace.Begin()
		inputs, coins, err := s.openRound(s.ctx, r, s.ownBid.Load())
		if err != nil {
			lat := time.Since(began)
			trace.RoundDone(r, s.peer.Lane(), s.peer.Self(), lat, true, int32(proto.AbortCodeOf(err)))
			s.report(RoundOutcome{Round: r, Err: err, Latency: lat})
			<-slots
			if s.ctx.Err() != nil {
				return
			}
			continue
		}
		trace.Span(span, trace.PhaseBidCollect, r, s.peer.Lane(), s.peer.Self(), trace.NoPeer, 0)

		select {
		case work <- roundWork{r: r, inputs: inputs, coins: coins, began: began}:
		case <-s.closing:
			// The round made trackRound before close(closing), so Close's
			// in-flight snapshot aborts it too, with the same cause; report
			// it here so the results stream accounts for every tracked round.
			s.report(RoundOutcome{Round: r, Err: s.abortOpen(r, errSessionClosed, coins)})
			<-slots
			return
		}
	}
}

// roundWorker is one of the session's persistent round workers: it runs
// phases 2–5 of each round handed to it and releases the round's pipeline
// slot after reporting. A worker holds no per-round state of its own — the
// round's work item and the session's executor carry everything — so the
// set is fixed at maxConcurrent for the session's whole life.
func (s *Session) roundWorker(work <-chan roundWork, slots <-chan struct{}, workers *sync.WaitGroup) {
	defer workers.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("distauction", "session-round-worker")))
	for rw := range work {
		rctx := s.ctx
		var cancel context.CancelFunc
		if s.settings.roundTimeout > 0 {
			rctx, cancel = context.WithTimeout(s.ctx, s.settings.roundTimeout)
		}
		out, err := s.finishRound(rctx, rw.r, rw.inputs, rw.coins)
		if cancel != nil {
			cancel()
		}
		lat := time.Since(rw.began)
		if err != nil {
			err = s.failRound(rw.r, err)
		}
		trace.RoundDone(rw.r, s.peer.Lane(), s.peer.Self(), lat, err != nil, int32(proto.AbortCodeOf(err)))
		s.report(RoundOutcome{Round: rw.r, Outcome: out, Err: err, Latency: lat})
		<-slots
	}
}

// emit reorders completed rounds and streams them in round order, then
// reclaims each round's protocol state: EndRound(r) runs only once every
// round <= r has completed, which is exactly when r is emitted.
func (s *Session) emit() {
	defer s.wg.Done()
	defer s.closeOutcomes()
	pending := make(map[uint64]RoundOutcome)
	next := s.settings.startRound
	for {
		var out RoundOutcome
		var ok bool
		select {
		case out, ok = <-s.results:
		case <-s.closing:
			s.drain(pending, next)
			return
		}
		if !ok {
			// Finite session completed all rounds (pending is empty: results
			// closes only after every worker reported, and reports drain in
			// round-contiguous batches by then).
			return
		}
		pending[out.Round] = out
		for {
			o, ready := pending[next]
			if !ready {
				break
			}
			select {
			case s.outcomes <- o:
			case <-s.closing:
				s.drain(pending, next)
				return
			}
			delete(pending, next)
			s.endRound(next)
			next++
		}
	}
}

// drain flushes rounds that completed before Close to the outcomes buffer,
// so a consumer that keeps reading sees every finished round rather than
// losing the ones emit had not streamed yet. Sends must not block — Close
// waits for emit — so a consumer that already walked away only gets what
// fits in the buffer. Remaining in-flight rounds report ⊥ through the same
// path: the scheduler and workers are winding down and every started round
// still reaches s.results before it closes.
func (s *Session) drain(pending map[uint64]RoundOutcome, next uint64) {
	for out := range s.results {
		pending[out.Round] = out
	}
	for {
		o, ready := pending[next]
		if !ready {
			return
		}
		select {
		case s.outcomes <- o:
		default:
			return
		}
		delete(pending, next)
		s.endRound(next)
		next++
	}
}
