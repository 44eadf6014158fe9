package market_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"distauction/internal/market"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// TestLaneSendAfterMuxCloseReturnsErrMuxClosed is the regression test for
// the close race: a Send on a lane of a closed mux must fail with the
// ErrMuxClosed sentinel (which also matches transport.ErrClosed), not with
// whatever the half-torn-down lane table produces.
func TestLaneSendAfterMuxCloseReturnsErrMuxClosed(t *testing.T) {
	ma, _ := twoMuxes(t)
	lc, err := ma.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	env := wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: 1, Block: wire.BlockTask, Step: 1}}
	err = lc.Send(env)
	if !errors.Is(err, market.ErrMuxClosed) {
		t.Fatalf("want ErrMuxClosed, got %v", err)
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("ErrMuxClosed must match transport.ErrClosed; got %v", err)
	}

	// An individually closed lane (mux still up) keeps the transport error:
	// the two failure modes stay distinguishable.
	mb, _ := twoMuxes(t)
	lc2, err := mb.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc2.Close(); err != nil {
		t.Fatal(err)
	}
	err = lc2.Send(env)
	if !errors.Is(err, transport.ErrClosed) || errors.Is(err, market.ErrMuxClosed) {
		t.Fatalf("lane-only close: want bare transport.ErrClosed, got %v", err)
	}
}

// TestMuxCountsParkedDrops floods a never-opened lane past the per-lane
// parking bound and asserts the overflow is counted, not silently lost.
func TestMuxCountsParkedDrops(t *testing.T) {
	ma, mb := twoMuxes(t)
	a1, err := ma.Lane(1)
	if err != nil {
		t.Fatal(err)
	}
	// Lane 1 is never opened on mb: everything parks there, and everything
	// past the per-lane bound drops.
	const overflow = 300 // maxParkedPerLane is 256
	for i := 0; i < overflow; i++ {
		env := wire.Envelope{From: 1, To: 2, Tag: wire.Tag{Round: uint64(i + 1), Block: wire.BlockTask, Step: 1}}
		if err := a1.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for mb.Stats().ParkedDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("parking overflow never counted: %+v", mb.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// peerOnLane opens lane on the mux and wraps it in a proto.Peer (which
// installs both the single and the batch handler on the lane conn).
func peerOnLane(t *testing.T, m *market.Mux, lane uint32, providers []wire.NodeID) *proto.Peer {
	t.Helper()
	lc, err := m.Lane(lane)
	if err != nil {
		t.Fatal(err)
	}
	p := proto.NewPeer(lc, providers)
	t.Cleanup(func() { p.Close() })
	return p
}

// TestLaneIsolationUnderBatching is the batched-path isolation satellite: a
// ⊥ abort riding a superframe next to other lanes' traffic must poison only
// its own lane. The superframe is injected directly (one SendBatch), so the
// batched dispatch path — not a lucky coalescing race — is what's tested.
func TestLaneIsolationUnderBatching(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ca, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hub.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	mb := market.NewMux(cb)
	t.Cleanup(func() { mb.Close() })
	providers := []wire.NodeID{1, 2}
	alpha := peerOnLane(t, mb, 1, providers) // victim lane of the ⊥
	beta := peerOnLane(t, mb, 2, providers)  // must stay clean

	// One superframe from provider 1: beta traffic, an alpha abort, more
	// beta traffic — all dispatched in one call on the receiving mux.
	abortPayload := func() []byte {
		enc := wire.NewEncoder(16)
		enc.String("batched ⊥")
		return enc.Buffer()
	}()
	batch := []wire.Envelope{
		{From: 1, To: 2, Tag: wire.Tag{Round: 7, Block: wire.BlockTask, Instance: wire.JoinLane(2, 0), Step: 1}, Payload: []byte("beta-1")},
		{From: 1, To: 2, Tag: wire.Tag{Round: 7, Block: wire.BlockControl, Instance: wire.JoinLane(1, 0), Step: proto.StepAbort}, Payload: abortPayload},
		{From: 1, To: 2, Tag: wire.Tag{Round: 7, Block: wire.BlockTask, Instance: wire.JoinLane(2, 0), Step: 2}, Payload: []byte("beta-2")},
	}
	if err := ca.SendBatch(batch); err != nil {
		t.Fatal(err)
	}

	// Alpha's round 7 is poisoned...
	deadline := time.Now().Add(10 * time.Second)
	for alpha.AbortErr(7) == nil {
		if time.Now().After(deadline) {
			t.Fatal("abort riding the superframe never landed in its lane")
		}
		time.Sleep(time.Millisecond)
	}
	// ...while beta's round 7 delivers both messages and is NOT aborted.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, step := range []uint8{1, 2} {
		tag := wire.Tag{Round: 7, Block: wire.BlockTask, Instance: 0, Step: step}
		payload, err := beta.Receive(ctx, tag, 1)
		if err != nil {
			t.Fatalf("beta step %d: %v (abort crossed lanes)", step, err)
		}
		want := map[uint8]string{1: "beta-1", 2: "beta-2"}[step]
		if string(payload) != want {
			t.Fatalf("beta step %d: got %q want %q", step, payload, want)
		}
	}
	if err := beta.AbortErr(7); err != nil {
		t.Fatalf("beta round 7 aborted: %v (abort crossed lanes)", err)
	}
	mbStats := mb.Stats()
	if mbStats.BatchesIn == 0 {
		t.Fatalf("superframe did not take the batched dispatch path: %+v", mbStats)
	}
}

// TestMuxBatchedEquivocationStillAborts: duplicate-key/different-payload
// inside one superframe is still the §3.2 equivocation — the batched ingest
// must detect it exactly like the per-envelope path.
func TestMuxBatchedEquivocationStillAborts(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ca, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hub.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	mb := market.NewMux(cb)
	t.Cleanup(func() { mb.Close() })
	providers := []wire.NodeID{1, 2}
	p := peerOnLane(t, mb, 3, providers)

	tag := wire.Tag{Round: 5, Block: wire.BlockTask, Instance: wire.JoinLane(3, 0), Step: 1}
	if err := ca.SendBatch([]wire.Envelope{
		{From: 1, To: 2, Tag: tag, Payload: []byte("one")},
		{From: 1, To: 2, Tag: tag, Payload: []byte("two")}, // equivocation
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.AbortErr(5) == nil {
		if time.Now().After(deadline) {
			t.Fatal("batched equivocation never aborted the round")
		}
		time.Sleep(time.Millisecond)
	}
}
