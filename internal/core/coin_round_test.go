package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/mechanism/standardauction"
	"distauction/internal/proto"
	"distauction/internal/taskgraph"
	"distauction/internal/testleak"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// The standard auction's coin starts when its round opens: the commit and
// echo run during bid collection, the reveal waits for bid agreement's
// binding point. These tests pin the four things that move with it: a
// provider that attaches late still gets round 1's commits, a round closed
// in bid collection joins its tosses and reveals nothing, no reveal leaves
// a provider before it holds every agreement digest, and a toss that can
// never finish holds its round only until the round timeout. A mechanism
// that draws only on demand goes through the same gated reservoir.

// Protocol steps read off the tap (the constants are the coin's and the
// consensus package's own).
const (
	coinEcho     uint8 = 2
	coinReveal   uint8 = 3
	agreeDigests uint8 = 5
)

// tapEvent is one envelope seen at a provider's connection, sent or
// delivered. Both are logged before the conn acts on them — before the
// send, before the provider's handler runs — so nothing the provider does
// in reaction to a delivery can be logged ahead of it.
type tapEvent struct {
	sent bool
	at   wire.NodeID // the provider whose connection saw it
	env  wire.Envelope
}

// tapLog is the one order in which every tapped connection's events
// happened.
type tapLog struct {
	mu     sync.Mutex
	events []tapEvent
}

func (l *tapLog) add(sent bool, at wire.NodeID, env wire.Envelope) {
	env.Payload, env.MAC = nil, nil
	l.mu.Lock()
	l.events = append(l.events, tapEvent{sent: sent, at: at, env: env})
	l.mu.Unlock()
}

func (l *tapLog) snapshot() []tapEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]tapEvent(nil), l.events...)
}

// first returns the index of the first event matching ok, or -1.
func first(events []tapEvent, ok func(tapEvent) bool) int {
	for i, e := range events {
		if ok(e) {
			return i
		}
	}
	return -1
}

// tapConn logs a provider's traffic. An envelope withhold returns true for
// is logged as sent but never leaves; one delay returns d for leaves d
// after it was logged, holding the sending goroutine meanwhile.
type tapConn struct {
	transport.Conn
	log      *tapLog
	withhold func(wire.Envelope) bool
	delay    func(wire.Envelope) time.Duration
}

func (c tapConn) Send(env wire.Envelope) error {
	c.log.add(true, c.Self(), env)
	if c.withhold != nil && c.withhold(env) {
		return nil
	}
	if c.delay != nil {
		time.Sleep(c.delay(env))
	}
	return c.Conn.Send(env)
}

func (c tapConn) SendBatch(envs []wire.Envelope) error {
	for _, env := range envs {
		if err := c.Send(env); err != nil {
			return err
		}
	}
	return nil
}

func (c tapConn) SetHandler(h transport.Handler) {
	c.Conn.SetHandler(func(env wire.Envelope) {
		c.log.add(false, c.Self(), env)
		h(env)
	})
}

func (c tapConn) SetBatchHandler(h transport.BatchHandler) {
	c.Conn.SetBatchHandler(func(envs []wire.Envelope) {
		for _, env := range envs {
			c.log.add(false, c.Self(), env)
		}
		h(envs)
	})
}

// coinRig is an m-provider standard-auction deployment on a zero-latency
// Hub with every provider's connection tapped. Bidders attach at once;
// providers attach and open their sessions through open.
type coinRig struct {
	t                *testing.T
	hub              *transport.Hub
	log              *tapLog
	providers, users []wire.NodeID
	sessions         []*Session
	bidders          []*BidderSession
	opts             []SessionOption
	// withhold, when set, filters what provider from sends; delay, when
	// set, holds each of its sends for the duration it returns.
	withhold func(from wire.NodeID, env wire.Envelope) bool
	delay    func(from wire.NodeID, env wire.Envelope) time.Duration
}

func newCoinRig(t *testing.T, m, n, rounds int) *coinRig {
	t.Helper()
	caps := make([]fixed.Fixed, m)
	for i := range caps {
		caps[i] = fixed.MustInt(2)
	}
	mech := StandardAuction{Params: standardauction.Params{Capacities: caps, InvEpsilon: 4}}
	r := &coinRig{
		t:   t,
		hub: transport.NewHub(transport.LatencyModel{}, 1),
		log: &tapLog{},
		opts: []SessionOption{WithK(1), WithMechanism(mech), WithBidWindow(10 * time.Second),
			WithRoundLimit(uint64(rounds)), WithRoundTimeout(30 * time.Second)},
	}
	for i := 0; i < m; i++ {
		r.providers = append(r.providers, wire.NodeID(i+1))
	}
	for i := 0; i < n; i++ {
		r.users = append(r.users, wire.NodeID(100+i))
	}
	for _, id := range r.users {
		conn, err := r.hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := OpenBidderSession(conn, r.providers, WithRoundLimit(uint64(rounds)), WithRoundTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		r.bidders = append(r.bidders, b)
	}
	return r
}

// open attaches provider i (0-based) and opens its session.
func (r *coinRig) open(i int) {
	r.t.Helper()
	conn, err := r.hub.Attach(r.providers[i])
	if err != nil {
		r.t.Fatal(err)
	}
	tap := tapConn{Conn: conn, log: r.log}
	from := r.providers[i]
	if r.withhold != nil {
		tap.withhold = func(env wire.Envelope) bool { return r.withhold(from, env) }
	}
	if r.delay != nil {
		tap.delay = func(env wire.Envelope) time.Duration { return r.delay(from, env) }
	}
	s, err := OpenSession(tap, r.providers, r.users, r.opts...)
	if err != nil {
		r.t.Fatal(err)
	}
	r.sessions = append(r.sessions, s)
}

// submit sends every bidder's round-r bid.
func (r *coinRig) submit(round uint64) {
	r.t.Helper()
	for i, b := range r.bidders {
		if err := b.Submit(round, auction.UserBid{Value: fixed.MustInt(int64(10 - i)), Demand: fixed.One}); err != nil {
			r.t.Fatal(err)
		}
	}
}

// awaitEchoes waits until every provider has sent the coin's echo for
// round: the commit and echo ran. It fails the test after limit.
func (r *coinRig) awaitEchoes(round uint64, limit time.Duration) {
	r.t.Helper()
	deadline := time.Now().Add(limit)
	for {
		echoed := map[wire.NodeID]bool{}
		for _, e := range r.log.snapshot() {
			if e.sent && e.env.Tag.Round == round && e.env.Tag.Block == wire.BlockCoin && e.env.Tag.Step == coinEcho {
				echoed[e.at] = true
			}
		}
		if len(echoed) == len(r.providers) {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("round %d: %d of %d providers echoed the coin within %v, before any bid", round, len(echoed), len(r.providers), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// outcomes reads `rounds` results from every provider and every bidder and
// requires each accepted and all equal.
func (r *coinRig) outcomes(rounds int) {
	r.t.Helper()
	for round := 1; round <= rounds; round++ {
		var want [32]byte
		check := func(who string, out RoundOutcome, ok bool) {
			r.t.Helper()
			switch {
			case !ok || out.Round != uint64(round):
				r.t.Fatalf("%s: no round-%d result (got %+v)", who, round, out)
			case out.Err != nil:
				r.t.Fatalf("%s: round %d: %v", who, round, out.Err)
			case want == [32]byte{}:
				want = out.Outcome.Digest()
			case out.Outcome.Digest() != want:
				r.t.Fatalf("%s: round %d outcome differs", who, round)
			}
		}
		for i, s := range r.sessions {
			out, ok := <-s.Outcomes()
			check(fmt.Sprintf("provider %d", r.providers[i]), out, ok)
		}
		for _, b := range r.bidders {
			out, ok := <-b.Outcomes()
			check("bidder", out, ok)
		}
	}
}

// revealsAfterDigests checks rounds 1..rounds: every provider sent a coin
// reveal, and none before it held every other provider's agreement digest
// for that round.
func (r *coinRig) revealsAfterDigests(rounds uint64) {
	r.t.Helper()
	events := r.log.snapshot()
	for round := uint64(1); round <= rounds; round++ {
		for _, id := range r.providers {
			reveal := first(events, func(e tapEvent) bool { return e.sent && e.at == id && inRound(e, round, wire.BlockCoin, coinReveal) })
			if reveal < 0 {
				r.t.Fatalf("round %d: provider %d never revealed", round, id)
			}
			digests := 0
			for i, e := range events {
				if !e.sent && e.at == id && inRound(e, round, wire.BlockBidAgree, agreeDigests) {
					digests++
					if i > reveal {
						r.t.Errorf("round %d: provider %d revealed (event %d) before %d's agreement digest arrived (event %d)",
							round, id, reveal, e.env.From, i)
					}
				}
			}
			if digests != len(r.providers)-1 {
				r.t.Errorf("round %d: provider %d received %d agreement digests, want %d", round, id, digests, len(r.providers)-1)
			}
		}
	}
}

// inRound reports whether e carries step of block in round.
func inRound(e tapEvent, round uint64, block wire.BlockID, step uint8) bool {
	return e.env.Tag.Round == round && e.env.Tag.Block == block && e.env.Tag.Step == step
}

func (r *coinRig) close() {
	for _, s := range r.sessions {
		s.Close()
	}
	for _, b := range r.bidders {
		b.Close()
	}
	r.hub.Close()
}

// A provider that attaches 200 ms after the others still receives round
// 1's coin commits, which the others sent the moment round 1 opened: every
// provider and bidder accepts the same outcome, with no ⊥, long before
// the bid window would have run out.
func TestLateProviderGetsRoundOneCoin(t *testing.T) {
	testleak.Check(t, func() {
		r := newCoinRig(t, 4, 3, 1)
		defer r.close()
		start := time.Now()
		for i := 0; i < 3; i++ {
			r.open(i)
		}
		time.Sleep(200 * time.Millisecond)
		r.open(3)
		r.submit(1)
		r.outcomes(1)
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("round 1 took %v against a 10 s bid window", d)
		}
	})
}

// A session closed while its round is still collecting bids joins that
// round's tosses before Close returns, and no provider reveals a share:
// the tosses wait at the reveal gate, and the round is ⊥ before Close
// opens it.
func TestCloseDuringBidCollectionJoinsCoin(t *testing.T) {
	testleak.Check(t, func() {
		r := newCoinRig(t, 3, 2, 1)
		defer r.close()
		for i := range r.providers {
			r.open(i)
		}
		r.awaitEchoes(1, 5*time.Second)
		for _, s := range r.sessions {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 1<<20)
		if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "coin.(*Reservoir)") {
			t.Fatalf("a toss outlived Close:\n%s", stacks)
		}
		for i, s := range r.sessions {
			out, ok := <-s.Outcomes()
			if !ok || out.Round != 1 || !errors.Is(out.Err, proto.ErrAborted) {
				t.Fatalf("provider %d: round 1 %+v, want ⊥", i+1, out)
			}
		}
		for _, e := range r.log.snapshot() {
			if e.sent && e.env.Tag.Block == wire.BlockCoin && e.env.Tag.Step == coinReveal {
				t.Fatalf("provider %d revealed %v of a round closed in bid collection", e.at, e.env.Tag)
			}
		}
	})
}

// With every bid held back until the coin has echoed, the coin's commit and
// echo happen before the first bid arrives (the prefetch runs during bid
// collection), and still no provider sends a reveal for round r before it
// holds every other provider's agreement digest for r: the reveal gate
// stays at agreement's binding point. Two rounds, so the second one's coin
// runs beside the first one's allocation.
func TestCoinRevealWaitsForAgreementDigests(t *testing.T) {
	testleak.Check(t, func() {
		const m, rounds = 4, 2
		r := newCoinRig(t, m, 3, rounds)
		defer r.close()
		for i := range r.providers {
			r.open(i)
		}
		for round := uint64(1); round <= rounds; round++ {
			r.awaitEchoes(round, 5*time.Second)
			r.submit(round)
		}
		r.outcomes(rounds)

		r.revealsAfterDigests(rounds)
	})
}

// spareDraw is the replicated standard auction with one more declared coin
// draw than its task consumes: every provider tosses the spare, nobody
// waits for its seed.
type spareDraw struct{ StandardAuction }

func (m spareDraw) Graph(cfg GraphConfig) (*taskgraph.Graph, error) {
	m.Replicated = true
	g, err := m.StandardAuction.Graph(cfg)
	if err != nil {
		return nil, err
	}
	tasks := slices.Clone(g.Tasks())
	tasks[0].CoinDraws++
	return taskgraph.New(cfg.Providers, cfg.K, tasks)
}

// A provider that withholds its reveal of the spare draw from one peer
// leaves that peer's toss gathering for good, while its graph completes.
// The toss runs under the round's context, so the round timeout ends it:
// the peer's round ends (⊥ or accepted) within the timeout instead of
// holding its worker, and the session's Close, until the session closes.
func TestUnfinishableTossEndsWithRoundTimeout(t *testing.T) {
	testleak.Check(t, func() {
		const timeout = 500 * time.Millisecond
		r := newCoinRig(t, 3, 2, 1)
		defer r.close()
		mech := spareDraw{StandardAuction{Params: standardauction.Params{
			Capacities: []fixed.Fixed{fixed.MustInt(2), fixed.MustInt(2), fixed.MustInt(2)}, InvEpsilon: 4}}}
		r.opts = append(r.opts, WithMechanism(mech), WithRoundTimeout(timeout))
		spare := taskgraph.CoinInstance(1, 1)
		r.withhold = func(from wire.NodeID, env wire.Envelope) bool {
			return from == 1 && env.To == 3 && env.Tag.Block == wire.BlockCoin &&
				env.Tag.Instance == spare && env.Tag.Step == coinReveal
		}
		start := time.Now()
		for i := range r.providers {
			r.open(i)
		}
		r.submit(1)
		for i, s := range r.sessions {
			select {
			case out := <-s.Outcomes():
				if out.Round != 1 {
					t.Fatalf("provider %d: %+v, want round 1", i+1, out)
				}
			case <-time.After(timeout + 5*time.Second):
				t.Fatalf("provider %d: round 1 still open %v after it started, round timeout %v", i+1, time.Since(start), timeout)
			}
		}
	})
}

// onDemandDraw is the standard auction with its draw left undeclared: the
// allocation task draws the coin on demand (UsesCoin, CoinDraws zero).
type onDemandDraw struct{ StandardAuction }

func (m onDemandDraw) Graph(cfg GraphConfig) (*taskgraph.Graph, error) {
	g, err := m.StandardAuction.Graph(cfg)
	if err != nil {
		return nil, err
	}
	tasks := slices.Clone(g.Tasks())
	tasks[0].CoinDraws = 0
	if !tasks[0].UsesCoin {
		return nil, errors.New("the standard auction's first task no longer draws the coin")
	}
	return taskgraph.New(cfg.Providers, cfg.K, tasks)
}

// A mechanism that only draws on demand gets the round's one gated
// reservoir too: its rounds agree with no ⊥, and no provider reveals its
// share before it holds every agreement digest.
func TestOnDemandCoinWaitsForAgreementDigests(t *testing.T) {
	testleak.Check(t, func() {
		const m, rounds = 4, 2
		r := newCoinRig(t, m, 3, rounds)
		defer r.close()
		caps := make([]fixed.Fixed, m)
		for i := range caps {
			caps[i] = fixed.MustInt(2)
		}
		r.opts = append(r.opts, WithMechanism(onDemandDraw{StandardAuction{Params: standardauction.Params{Capacities: caps, InvEpsilon: 4}}}))
		for i := range r.providers {
			r.open(i)
		}
		for round := uint64(1); round <= rounds; round++ {
			r.submit(round)
		}
		r.outcomes(rounds)
		r.revealsAfterDigests(rounds)
	})
}
