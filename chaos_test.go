// Chaos and degradation tests: the transport resilience layer under
// injected faults. The soak proves a full marketplace survives frame drops
// and connection kills with no transport-attributed aborts and a
// replay-equal settlement journal; the classification tests prove a
// crashed peer is reported as `disconnect` — never confused with a
// deviant, which still earns `equivocation`.
package distauction_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/harness"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// TestChaosSoakMarket is the chaos soak of the CI plan: a 64-auction
// market over Resilient(Hub) with 1% frame drops and a
// connection kill every 50 completed rounds. The resilience layer must
// fully mask the faults: zero aborted rounds (in particular zero
// transport-attributed ones), identical settlement journals on every
// committee member, and a journal equal to a serial replay of the
// observed outcomes (both journal checks run inside the harness).
func TestChaosSoakMarket(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	res, err := harness.RunMarketChaos(64, 4,
		harness.ChaosConfig{Drop: 0.01, KillEvery: 50},
		harness.WithUsers(4), harness.WithSeed(1), harness.WithTimeout(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != 0 {
		t.Fatalf("%d of %d rounds aborted under chaos (codes: disconnect=%d timeout=%d equivocation=%d)",
			res.Aborted, res.Rounds,
			res.AbortCodes[proto.AbortDisconnect],
			res.AbortCodes[proto.AbortTimeout],
			res.AbortCodes[proto.AbortEquivocation])
	}
	if res.Faults.Dropped == 0 {
		t.Error("fault injector dropped nothing — soak proved nothing")
	}
	if res.Faults.Kills == 0 {
		t.Error("no connection kills fired — soak proved nothing")
	}
	t.Logf("survived %d rounds in %v: faults %+v, link %+v",
		res.Rounds, res.Duration.Round(time.Millisecond), res.Faults, res.Link)
}

// resilientDeployment opens a 3-provider / 2-user session deployment over
// the full resilience stack and returns the Hub beneath it for the test to
// schedule partitions. wrap, when non-nil, decorates provider conns above
// the resilience layer (deviation injection).
func resilientDeployment(t *testing.T, rounds uint64, wrap func(i int, conn transport.Conn) transport.Conn) ([]*core.Session, []*core.BidderSession, *transport.Hub) {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	net := transport.Resilient(hub, transport.ResilientConfig{
		HeartbeatEvery: 10 * time.Millisecond,
		ResendAfter:    20 * time.Millisecond,
		SuspectAfter:   4,
		DeadAfter:      12, // dead after 120ms of silence — well inside the round timeout
	})
	t.Cleanup(func() { net.Close() })

	providers := []wire.NodeID{1, 2, 3}
	users := []wire.NodeID{100, 101}
	sessions := make([]*core.Session, 0, len(providers))
	for i, id := range providers {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		var c transport.Conn = conn
		if wrap != nil {
			c = wrap(i, c)
		}
		s, err := core.OpenSession(c, providers, users,
			core.WithK(1),
			core.WithMechanismName("double"),
			core.WithBidWindow(400*time.Millisecond),
			core.WithRoundTimeout(3*time.Second),
			core.WithProviderBid(auction.ProviderBid{
				Cost: fixed.MustFloat(float64(i + 1)), Capacity: fixed.MustFloat(5),
			}),
			core.WithRoundLimit(rounds),
			core.WithOutcomeBuffer(int(rounds)),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		sessions = append(sessions, s)
	}
	bidders := make([]*core.BidderSession, 0, len(users))
	for _, id := range users {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.OpenBidderSession(conn, providers,
			core.WithRoundLimit(rounds),
			core.WithOutcomeBuffer(int(rounds)),
			core.WithRoundTimeout(10*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		bidders = append(bidders, b)
	}
	return sessions, bidders, hub
}

// isolate cuts every link to and from id, both directions — the node is
// gone as far as the rest of the deployment can tell.
func isolate(hub *transport.Hub, id wire.NodeID, all []wire.NodeID) {
	for _, other := range all {
		if other == id {
			continue
		}
		hub.SetPartition(id, other, true)
		hub.SetPartition(other, id, true)
	}
}

func nextOutcome(t *testing.T, who string, outs <-chan core.RoundOutcome) core.RoundOutcome {
	t.Helper()
	select {
	case out, ok := <-outs:
		if !ok {
			t.Fatalf("%s: outcome stream closed", who)
		}
		return out
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: no outcome", who)
	}
	panic("unreachable")
}

// TestCrashCommitteePeerAbortsDisconnect: a committee member that stops
// responding (missed heartbeats) must abort the round with the typed code
// `disconnect` and the dead peer as culprit — crash fault, not deviance.
func TestCrashCommitteePeerAbortsDisconnect(t *testing.T) {
	everyone := []wire.NodeID{1, 2, 3, 100, 101}
	sessions, bidders, hub := resilientDeployment(t, 2, nil)

	for _, b := range bidders {
		if err := b.Submit(1, auction.UserBid{Value: fixed.MustFloat(9), Demand: fixed.MustFloat(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Round 1 must be fully settled everywhere before the crash.
	for i, s := range sessions {
		if out := nextOutcome(t, "provider", s.Outcomes()); out.Round != 1 || out.Err != nil {
			t.Fatalf("provider %d round 1: %+v", i+1, out)
		}
	}
	for i, b := range bidders {
		if out := nextOutcome(t, "bidder", b.Outcomes()); out.Round != 1 || out.Err != nil {
			t.Fatalf("bidder %d round 1: %+v", i, out)
		}
	}

	isolate(hub, 3, everyone) // provider 3 crashes
	for _, b := range bidders {
		if err := b.Submit(2, auction.UserBid{Value: fixed.MustFloat(9), Demand: fixed.MustFloat(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range sessions[:2] { // the survivors
		out := nextOutcome(t, "provider", s.Outcomes())
		if out.Round != 2 || out.Err == nil {
			t.Fatalf("provider %d round 2: want ⊥, got %+v", i+1, out)
		}
		var ae *proto.AbortError
		if !errors.As(out.Err, &ae) {
			t.Fatalf("provider %d round 2: %v is not an AbortError", i+1, out.Err)
		}
		if ae.Code != proto.AbortDisconnect {
			t.Fatalf("provider %d round 2: abort code %v, want disconnect (reason: %s)", i+1, ae.Code, ae.Reason)
		}
		if ae.Culprit != 3 {
			t.Errorf("provider %d round 2: culprit %d, want the crashed peer 3", i+1, ae.Culprit)
		}
	}
}

// crashAtConn partitions its provider from everyone at the first send that
// match selects, before that send leaves: a crash at a chosen protocol step.
type crashAtConn struct {
	transport.Conn
	match   func(wire.Envelope) bool
	crash   func()
	crashed atomic.Bool
}

func (c *crashAtConn) Send(env wire.Envelope) error {
	if c.match(env) && c.crashed.CompareAndSwap(false, true) {
		c.crash()
	}
	return c.Conn.Send(env)
}

// TestCrashAfterAgreementAttributesCulprit: a committee member that crashes
// after bid agreement — at its first task-digest send of round 2, the first
// message after agreement's digest path — must still be reported as
// `disconnect` with itself as culprit. Validation, the task-digest check and
// the transfer gathers all end in the same unanimity check, which keeps a
// gather's typed cause.
func TestCrashAfterAgreementAttributesCulprit(t *testing.T) {
	everyone := []wire.NodeID{1, 2, 3, 100, 101}
	var hub atomic.Pointer[transport.Hub]
	wrap := func(i int, conn transport.Conn) transport.Conn {
		if i != 2 {
			return conn
		}
		return &crashAtConn{
			Conn:  conn,
			match: func(env wire.Envelope) bool { return env.Tag.Round == 2 && env.Tag.Block == wire.BlockTask },
			crash: func() { isolate(hub.Load(), 3, everyone) },
		}
	}
	sessions, bidders, h := resilientDeployment(t, 2, wrap)
	hub.Store(h)

	for _, b := range bidders {
		if err := b.Submit(1, auction.UserBid{Value: fixed.MustFloat(9), Demand: fixed.MustFloat(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Round 1 settles everywhere before round 2 starts: with both rounds in
	// flight, a survivor's round 1 would abort too.
	for i, s := range sessions {
		if out := nextOutcome(t, "provider", s.Outcomes()); out.Round != 1 || out.Err != nil {
			t.Fatalf("provider %d round 1: %+v", i+1, out)
		}
	}
	for i, b := range bidders {
		if out := nextOutcome(t, "bidder", b.Outcomes()); out.Round != 1 || out.Err != nil {
			t.Fatalf("bidder %d round 1: %+v", i, out)
		}
	}

	for _, b := range bidders {
		if err := b.Submit(2, auction.UserBid{Value: fixed.MustFloat(9), Demand: fixed.MustFloat(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range sessions[:2] { // the survivors
		out := nextOutcome(t, "provider", s.Outcomes())
		if out.Round != 2 || out.Err == nil {
			t.Fatalf("provider %d round 2: want ⊥, got %+v", i+1, out)
		}
		var ae *proto.AbortError
		if !errors.As(out.Err, &ae) {
			t.Fatalf("provider %d round 2: %v is not an AbortError", i+1, out.Err)
		}
		if ae.Code != proto.AbortDisconnect || ae.Culprit != 3 {
			t.Errorf("provider %d round 2: abort %v culprit %d, want disconnect culprit 3 (reason: %s)",
				i+1, ae.Code, ae.Culprit, ae.Reason)
		}
	}
}

// TestCrashBidderDegradesToNeutralBid: a bidder whose link dies must not
// take the round with it — its slot degrades to the neutral bid and the
// round completes for everyone still connected.
func TestCrashBidderDegradesToNeutralBid(t *testing.T) {
	everyone := []wire.NodeID{1, 2, 3, 100, 101}
	sessions, bidders, hub := resilientDeployment(t, 2, nil)

	for _, b := range bidders {
		if err := b.Submit(1, auction.UserBid{Value: fixed.MustFloat(9), Demand: fixed.MustFloat(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range sessions {
		if out := nextOutcome(t, "provider", s.Outcomes()); out.Round != 1 || out.Err != nil {
			t.Fatalf("provider %d round 1: %+v", i+1, out)
		}
	}
	if out := nextOutcome(t, "bidder", bidders[0].Outcomes()); out.Round != 1 || out.Err != nil {
		t.Fatalf("bidder 0 round 1: %+v", out)
	}

	isolate(hub, 101, everyone) // bidder 101 crashes
	if err := bidders[0].Submit(2, auction.UserBid{Value: fixed.MustFloat(9), Demand: fixed.MustFloat(1)}); err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		out := nextOutcome(t, "provider", s.Outcomes())
		if out.Round != 2 || out.Err != nil {
			t.Fatalf("provider %d round 2: dead bidder must degrade to neutral bid, got %+v", i+1, out)
		}
	}
	if out := nextOutcome(t, "bidder", bidders[0].Outcomes()); out.Round != 2 || out.Err != nil {
		t.Fatalf("bidder 0 round 2: %+v", out)
	}
}

// equivocatorConn sends the matched envelope twice — once honest, once
// with a flipped payload byte — to the same receiver. Two differing
// payloads under one tag is the protocol's definition of equivocation, so
// every receiver detects it locally.
type equivocatorConn struct {
	transport.Conn
	match func(wire.Envelope) bool
}

func (c *equivocatorConn) Send(env wire.Envelope) error {
	if err := c.Conn.Send(env); err != nil {
		return err
	}
	if !c.match(env) || len(env.Payload) == 0 {
		return nil
	}
	dup := env
	dup.Payload = append([]byte(nil), env.Payload...)
	dup.Payload[0] ^= 0xFF
	return c.Conn.Send(dup)
}

// TestDeviantStillClassifiedEquivocation: with the resilience layer active,
// an equivocating provider must still abort its round with the code
// `equivocation` — a deviant is never mistaken for a crash.
func TestDeviantStillClassifiedEquivocation(t *testing.T) {
	wrap := func(i int, conn transport.Conn) transport.Conn {
		if i != 2 {
			return conn
		}
		return &equivocatorConn{Conn: conn, match: func(env wire.Envelope) bool {
			// Round 2's bid-agreement digest, the first message after the bids.
			return env.Tag.Round == 2 && env.Tag.Block == wire.BlockBidAgree && env.Tag.Step == 5
		}}
	}
	sessions, bidders, _ := resilientDeployment(t, 2, wrap)

	for r := uint64(1); r <= 2; r++ {
		for _, b := range bidders {
			if err := b.Submit(r, auction.UserBid{Value: fixed.MustFloat(9), Demand: fixed.MustFloat(1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range sessions[:2] { // the honest providers
		if out := nextOutcome(t, "provider", s.Outcomes()); out.Round != 1 || out.Err != nil {
			t.Fatalf("provider %d round 1: %+v", i+1, out)
		}
		out := nextOutcome(t, "provider", s.Outcomes())
		if out.Round != 2 || out.Err == nil {
			t.Fatalf("provider %d round 2: want ⊥, got %+v", i+1, out)
		}
		var ae *proto.AbortError
		if !errors.As(out.Err, &ae) {
			t.Fatalf("provider %d round 2: %v is not an AbortError", i+1, out.Err)
		}
		if ae.Code != proto.AbortEquivocation {
			t.Fatalf("provider %d round 2: abort code %v, want equivocation (reason: %s)", i+1, ae.Code, ae.Reason)
		}
		if ae.Code == proto.AbortDisconnect {
			t.Fatalf("provider %d round 2: deviant classified as crash", i+1)
		}
	}
}
