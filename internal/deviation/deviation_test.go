// Integration suite: one deviant provider runs the honest protocol over a
// fault-injecting connection while the rest stay honest. Safety must hold:
// honest providers either unanimously produce the reference outcome or
// unanimously ⊥ — never a different accepted outcome.
package deviation

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/audit"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/mechanism/doubleauction"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// scenario is a one-round deployment of honest sessions in which one
// provider's connection is wrapped with deviation rules: bidder sessions are
// open, provider connections attached, and run opens the provider sessions
// once the bids are in.
type scenario struct {
	providers, users []wire.NodeID
	conns            []transport.Conn // per provider; the deviant's is wrapped
	bidders          []*core.BidderSession
	deviant          *Conn
	mech             core.Mechanism
	provBids         []auction.ProviderBid // nil for single-sided mechanisms
	bidWindow        time.Duration
	// fallback makes bidder 0 send provider 1 its bid respelled, so bid
	// agreement takes its fallback yet decides the same bids.
	fallback bool
}

// respell returns a user bid's encoding with one redundant byte in its
// first varint: every decoder reads the same bid from it, but bid agreement
// sees another byte string. A bidder that sends it to one provider only
// equivocates in bytes and not in value, so the providers enter agreement
// with different vectors — its fallback runs — and still agree on the
// reference outcome whichever slot leader is drawn.
func respell(raw []byte) []byte {
	i := 0
	for raw[i]&0x80 != 0 {
		i++
	}
	out := append([]byte(nil), raw[:i]...)
	out = append(out, raw[i]|0x80, 0)
	return append(out, raw[i+1:]...)
}

// newScenario builds a 3-provider, 2-user double-auction deployment where
// provider 3's connection is wrapped with the given rules.
func newScenario(t *testing.T, rules ...Rule) *scenario {
	t.Helper()
	s := &scenario{
		providers: []wire.NodeID{1, 2, 3},
		users:     []wire.NodeID{100, 101},
		mech:      core.DoubleAuction{},
		provBids:  testProvBids,
		bidWindow: 400 * time.Millisecond,
	}
	s.attach(t, transport.NewHub(transport.LatencyModel{}, 1), 3, rules)
	return s
}

// attach connects every participant to hub, wrapping the deviant provider's
// connection with rules, and opens the bidder sessions.
func (s *scenario) attach(t *testing.T, hub *transport.Hub, deviant wire.NodeID, rules []Rule) {
	t.Helper()
	t.Cleanup(func() { hub.Close() })
	for _, id := range s.providers {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		var tc transport.Conn = conn
		if id == deviant {
			s.deviant = Wrap(conn, rules...)
			tc = s.deviant
		}
		s.conns = append(s.conns, tc)
	}
	for _, id := range s.users {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.OpenBidderSession(conn, s.providers, core.WithRoundLimit(1), core.WithRoundTimeout(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		s.bidders = append(s.bidders, b)
	}
}

// runRound submits bids, opens a one-round session on every provider
// connection and returns each provider's round-1 result. timeout bounds the
// round past bid collection: a provider waiting on a silent peer ends in ⊥
// after it.
func (s *scenario) runRound(t *testing.T, bids []auction.UserBid, timeout time.Duration) (outs []auction.Outcome, errs []error) {
	t.Helper()
	for i, b := range s.bidders {
		var err error
		if i == 0 && s.fallback {
			raw := bids[i].Encode()
			payloads := map[wire.NodeID][]byte{}
			for _, id := range s.providers {
				payloads[id] = raw
			}
			payloads[1] = respell(raw)
			err = b.SubmitRaw(1, payloads)
		} else {
			err = b.Submit(1, bids[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sessions := make([]*core.Session, len(s.conns))
	for i, conn := range s.conns {
		opts := []core.SessionOption{
			core.WithK(1),
			core.WithMechanism(s.mech),
			core.WithBidWindow(s.bidWindow),
			core.WithRoundLimit(1),
			core.WithRoundTimeout(timeout),
		}
		if s.provBids != nil {
			opts = append(opts, core.WithProviderBid(s.provBids[i]))
		}
		sess, err := core.OpenSession(conn, s.providers, s.users, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		sessions[i] = sess
	}
	outs = make([]auction.Outcome, len(sessions))
	errs = make([]error, len(sessions))
	for i, sess := range sessions {
		out, ok := <-sess.Outcomes()
		if !ok || out.Round != 1 {
			t.Fatalf("provider %d: no round-1 result (got %+v)", i+1, out)
		}
		outs[i], errs[i] = out.Outcome, out.Err
	}
	return outs, errs
}

var (
	testUserBids = []auction.UserBid{
		{Value: fixed.MustFloat(10), Demand: fixed.One},
		{Value: fixed.MustFloat(8), Demand: fixed.One},
	}
	testProvBids = []auction.ProviderBid{
		{Cost: fixed.One, Capacity: fixed.MustFloat(5)},
		{Cost: fixed.MustFloat(2), Capacity: fixed.MustFloat(5)},
		{Cost: fixed.MustFloat(3), Capacity: fixed.MustFloat(5)},
	}
)

// referenceOutcome is what the honest execution of A produces.
func referenceOutcome(t *testing.T) auction.Outcome {
	t.Helper()
	out, err := doubleauction.Solve(auction.BidVector{Users: testUserBids, Providers: testProvBids})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// run drives one round and returns every provider's result.
func (s *scenario) run(t *testing.T, timeout time.Duration) ([]auction.Outcome, []error) {
	t.Helper()
	return s.runRound(t, testUserBids, timeout)
}

// assertSafety checks the core claim of §3.2: no honest provider (1 or 2)
// ever outputs a WRONG pair. A split between the reference outcome and ⊥ is
// allowed — by Definition 1 the *global* outcome is then ⊥, and the external
// mechanism (bidder unanimity, ledger) withholds enforcement. It returns the
// number of honest providers that locally output ⊥.
func assertSafety(t *testing.T, outs []auction.Outcome, errs []error, ref auction.Outcome) (aborted int) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if errs[i] == nil {
			if outs[i].Digest() != ref.Digest() {
				t.Errorf("honest provider %d accepted a WRONG outcome", i+1)
			}
			continue
		}
		if !errors.Is(errs[i], proto.ErrAborted) && !errors.Is(errs[i], context.DeadlineExceeded) {
			t.Errorf("honest provider %d unexpected error: %v", i+1, errs[i])
		}
		aborted++
	}
	return aborted
}

func TestNoDeviationBaseline(t *testing.T) {
	s := newScenario(t) // no rules
	outs, errs := s.run(t, 30*time.Second)
	ref := referenceOutcome(t)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i+1, err)
		}
	}
	for i := range outs {
		if outs[i].Digest() != ref.Digest() {
			t.Errorf("provider %d outcome differs from reference", i+1)
		}
	}
}

func TestSilentProviderForcesBot(t *testing.T) {
	// Provider 3 goes silent for everything after bid submission.
	s := newScenario(t, Rule{
		Match:  func(env wire.Envelope) bool { return env.Tag.Block != wire.BlockBidSubmit },
		Action: Drop,
	})
	outs, errs := s.run(t, 5*time.Second)
	if got := assertSafety(t, outs, errs, referenceOutcome(t)); got != 2 {
		t.Errorf("silence should force ⊥ at both honest providers, got %d", got)
	}
}

func TestCorruptedConsensusRevealForcesBot(t *testing.T) {
	// Provider 3 corrupts its bid-agreement reveal (step 3) on a round an
	// equivocating bidder sends to the fallback: it can no longer open its
	// commitment, so the round must abort.
	s := newScenario(t, Rule{
		Match:     MatchBlockStep(wire.BlockBidAgree, 3),
		Action:    Mutate,
		Transform: FlipPayloadByte(),
	})
	s.fallback = true
	outs, errs := s.run(t, 10*time.Second)
	if got := assertSafety(t, outs, errs, referenceOutcome(t)); got != 2 {
		t.Errorf("corrupted reveal should force ⊥ at both honest providers, got %d", got)
	}
	if s.deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

// TestEquivocatedCommitmentAccusesNobody: on a round an equivocating bidder
// sends to bid agreement's fallback, provider 3 flips its fallback
// commitment toward provider 1 only. The echo step catches it
// — providers 1 and 2 hold different commitment sets — but a mismatch
// between views shows that someone lied, never who: provider 1's set is the
// odd one out although provider 1 is honest. Both honest providers output ⊥
// and neither's audit log charges anyone; charging the provider whose echo
// differed would let a deviant frame an honest peer.
func TestEquivocatedCommitmentAccusesNobody(t *testing.T) {
	s := newScenario(t, Rule{
		Match:     And(MatchBlockStep(wire.BlockBidAgree, 1), MatchReceiver(1)),
		Action:    Mutate,
		Transform: FlipPayloadByte(),
	})
	s.fallback = true
	outs, errs := s.run(t, 10*time.Second)
	if got := assertSafety(t, outs, errs, referenceOutcome(t)); got != 2 {
		t.Fatalf("an equivocated commitment should force ⊥ at both honest providers, got %d", got)
	}
	for i := 0; i < 2; i++ {
		log := audit.New(nil)
		log.RecordAbort(1, errs[i])
		for _, id := range s.providers {
			if n := log.Strikes(id); n != 0 {
				t.Errorf("provider %d's audit log charges provider %d (%d strikes) for %v", i+1, id, n, errs[i])
			}
		}
	}
	if s.deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

func TestEquivocatedTaskDigestForcesBot(t *testing.T) {
	// Provider 3 lies about its task result digest to provider 1 only.
	s := newScenario(t, Rule{
		Match:     And(MatchBlock(wire.BlockTask), MatchReceiver(1)),
		Action:    Mutate,
		Transform: FlipPayloadByte(),
	})
	outs, errs := s.run(t, 10*time.Second)
	// The lied-to provider 1 must abort; provider 2 may race to the
	// reference outcome before the abort reaches it (the global outcome is
	// still ⊥ by non-unanimity).
	if assertSafety(t, outs, errs, referenceOutcome(t)) == 0 {
		t.Error("task digest equivocation should force ⊥ at least at its victim")
	}
	if errs[0] == nil {
		t.Error("provider 1 (the victim of the lie) must output ⊥")
	}
}

func TestEquivocatedValidationForcesBot(t *testing.T) {
	// Provider 3 sends a different input-validation digest to provider 2.
	// Validation runs after bid agreement's fallback only; an equivocating
	// bidder sends the round there.
	s := newScenario(t, Rule{
		Match:     MatchBlock(wire.BlockValidate),
		Action:    Mutate,
		Transform: EquivocateTo(2),
	})
	s.fallback = true
	outs, errs := s.run(t, 10*time.Second)
	if assertSafety(t, outs, errs, referenceOutcome(t)) == 0 {
		t.Error("validation equivocation should force ⊥ at least at its victim")
	}
	if errs[1] == nil {
		t.Error("provider 2 (the victim of the lie) must output ⊥")
	}
	if s.deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

// Duplicated identical messages are absorbed by the runtime: the round must
// succeed with the reference outcome.
func TestDuplicationIsHarmless(t *testing.T) {
	var inner transport.Conn
	s := newScenario(t, Rule{
		Match:  func(env wire.Envelope) bool { return env.Tag.Block != wire.BlockBidSubmit },
		Action: Mutate,
		Transform: func(env wire.Envelope) wire.Envelope {
			// Send a first copy out-of-band, then let the original go out.
			if inner != nil {
				_ = inner.Send(env)
			}
			return env
		},
	})
	inner = s.deviant.inner

	outs, errs := s.run(t, 30*time.Second)
	ref := referenceOutcome(t)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v (duplication must be harmless)", i+1, err)
		}
	}
	for i := range outs {
		if outs[i].Digest() != ref.Digest() {
			t.Errorf("provider %d outcome differs under duplication", i+1)
		}
	}
}

// A deviant that corrupts its outcome report to a bidder cannot make the
// bidder accept it: the bidder requires unanimity across providers.
func TestCorruptedResultReportDetectedByBidder(t *testing.T) {
	s := newScenario(t, Rule{
		Match:     MatchBlock(wire.BlockResult),
		Action:    Mutate,
		Transform: FlipPayloadByte(),
	})
	_, errs := s.run(t, 30*time.Second)
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("provider %d: %v", i+1, errs[i])
		}
	}
	for i, b := range s.bidders {
		if out := <-b.Outcomes(); !errors.Is(out.Err, core.ErrOutcomeBot) {
			t.Errorf("bidder %d accepted a non-unanimous outcome: %v", i, out.Err)
		}
	}
}

// rewriteResult returns a transform that applies rewrite to the outcome
// frame of an accepted result report, leaving the flag and a ⊥ report as
// they are.
func rewriteResult(rewrite func(frame []byte) []byte) func(wire.Envelope) wire.Envelope {
	return func(env wire.Envelope) wire.Envelope {
		d := wire.NewDecoder(env.Payload)
		ok, frame := d.Bool(), d.BytesView()
		if d.Finish() != nil || !ok {
			return env
		}
		enc := wire.NewEncoder(0)
		enc.Bool(true)
		enc.Bytes(rewrite(frame))
		env.Payload = enc.Buffer()
		return env
	}
}

// runRewrittenResult runs a round in which provider 3 sends every bidder
// the agreed outcome's frame passed through rewrite. Both honest providers
// must output the reference outcome, and every bidder ⊥: it accepts only m
// byte-identical frames.
func runRewrittenResult(t *testing.T, rewrite func(frame []byte) []byte) {
	t.Helper()
	s := newScenario(t, Rule{
		Match:     MatchBlock(wire.BlockResult),
		Action:    Mutate,
		Transform: rewriteResult(rewrite),
	})
	outs, errs := s.run(t, 30*time.Second)
	ref := referenceOutcome(t)
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("provider %d: %v", i+1, errs[i])
		}
		if outs[i].Digest() != ref.Digest() {
			t.Errorf("honest provider %d's outcome differs from the reference", i+1)
		}
	}
	if s.deviant.Matched.Load() == 0 {
		t.Fatal("the deviant sent no result report")
	}
	for i, b := range s.bidders {
		if out := <-b.Outcomes(); !errors.Is(out.Err, core.ErrOutcomeBot) {
			t.Errorf("bidder %d accepted a frame one provider sent differently: %v", i, out.Err)
		}
	}
}

// moveUnit moves the first non-zero cell of an outcome frame's unit matrix
// to the next cell: a frame that decodes to another outcome.
func moveUnit(frame []byte) []byte {
	o, err := auction.DecodeOutcome(frame)
	if err != nil {
		panic(err)
	}
	units := o.Alloc.Units
	for c, v := range units {
		if v != 0 {
			units[c], units[(c+1)%len(units)] = 0, units[(c+1)%len(units)]+v
			break
		}
	}
	return o.Encode()
}

// respellUnit gives the first unit value of an outcome frame one redundant
// byte: a frame that decodes to the same outcome in other bytes.
func respellUnit(frame []byte) []byte {
	d := wire.NewDecoder(frame)
	n, m := d.Uvarint(), d.Uvarint()
	d.Bitmap(n * m)
	at := len(frame) - d.Remaining()
	return append(bytes.Clone(frame[:at]), respell(frame[at:])...)
}

// A deviant that moves one unit of the agreed outcome to the neighbouring
// cell sends a well-formed frame of another outcome; the bidders see it
// differ from the honest providers' frames and output ⊥.
func TestMovedUnitResultForcesBidderBot(t *testing.T) {
	ref := referenceOutcome(t)
	if moved, err := auction.DecodeOutcome(moveUnit(ref.Encode())); err != nil || moved.Digest() == ref.Digest() {
		t.Fatalf("the moved frame must decode to another outcome: err %v", err)
	}
	runRewrittenResult(t, moveUnit)
}

// A deviant that respells one varint of the agreed outcome sends a frame of
// the very same outcome in other bytes; the bidders compare bytes, not
// values, and output ⊥.
func TestRespelledResultForcesBidderBot(t *testing.T) {
	ref := referenceOutcome(t)
	raw := ref.Encode()
	respelled := respellUnit(raw)
	if back, err := auction.DecodeOutcome(respelled); err != nil || back.Digest() != ref.Digest() || bytes.Equal(respelled, raw) {
		t.Fatalf("the respelled frame must decode to the same outcome in other bytes: err %v", err)
	}
	runRewrittenResult(t, respellUnit)
}

func TestPassRuleCountsWithoutChanging(t *testing.T) {
	s := newScenario(t, Rule{
		Match:  MatchBlock(wire.BlockCoin),
		Action: Pass,
	})
	outs, errs := s.run(t, 30*time.Second)
	ref := referenceOutcome(t)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("provider %d: %v", i+1, err)
		}
	}
	for i := range outs {
		if outs[i].Digest() != ref.Digest() {
			t.Errorf("provider %d outcome changed under Pass rule", i+1)
		}
	}
	// The double auction never tosses the coin, so the matcher must not
	// have fired; the rule machinery itself was exercised by Send.
	if s.deviant.Matched.Load() != 0 {
		t.Error("coin matcher fired in a coinless mechanism")
	}
}

// TestSplitDigestViewEndsInBotAtOnce: provider 3 sends provider 1 a
// bid-agreement digest other than the one it sends provider 2. Provider 1
// takes the fallback, providers 2 and 3 the digest path, and provider 1's
// fallback commit ends the round at the others the moment it lands —
// their task graphs cannot finish meanwhile, since the final digest gather
// waits on provider 1. Every provider and every bidder holds ⊥ in well
// under a second, against a 30 s round timeout; the honest providers' ⊥ is
// an unattributed protocol abort, since a split view never shows who lied.
func TestSplitDigestViewEndsInBotAtOnce(t *testing.T) {
	s := newScenario(t, Rule{
		Match:     MatchBlockStep(wire.BlockBidAgree, 5), // the digest every round starts with
		Action:    Mutate,
		Transform: EquivocateTo(1),
	})
	start := time.Now()
	_, errs := s.run(t, 30*time.Second)
	for i := 0; i < 2; i++ {
		var ae *proto.AbortError
		if !errors.As(errs[i], &ae) || ae.Code != proto.AbortProtocol || ae.Culprit != wire.Broadcast {
			t.Errorf("honest provider %d: got %v, want an unattributed protocol abort", i+1, errs[i])
		}
	}
	if !errors.Is(errs[2], proto.ErrAborted) {
		t.Errorf("deviant provider: got %v, want ⊥", errs[2])
	}
	for i, b := range s.bidders {
		if out := <-b.Outcomes(); !errors.Is(out.Err, core.ErrOutcomeBot) {
			t.Errorf("bidder %d: got %v, want ⊥", i, out.Err)
		}
	}
	if took := time.Since(start); took >= time.Second {
		t.Errorf("split view ended after %v, want < 1s", took)
	}
	if s.deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

// TestCommitOffBroadcastDigestBlamesSender: provider 3 broadcasts a
// flipped bid-agreement digest to everyone alike, on a round an
// equivocating bidder sends to the fallback. Its fallback commitment
// carries its vector's true digest, not the one it broadcast: both honest
// providers charge it a protocol abort.
func TestCommitOffBroadcastDigestBlamesSender(t *testing.T) {
	s := newScenario(t, Rule{
		Match:     MatchBlockStep(wire.BlockBidAgree, 5),
		Action:    Mutate,
		Transform: FlipPayloadByte(),
	})
	s.fallback = true
	_, errs := s.run(t, 10*time.Second)
	for i := 0; i < 2; i++ {
		var ae *proto.AbortError
		if !errors.As(errs[i], &ae) || ae.Code != proto.AbortProtocol || ae.Culprit != 3 {
			t.Errorf("honest provider %d: got %v, want a protocol abort charged to provider 3", i+1, errs[i])
		}
	}
	if s.deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}
