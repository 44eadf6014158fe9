package coin

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/commit"
	"distauction/internal/deviation"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// newPeers attaches n providers (IDs 1..n) to a fresh hub; provider n's
// connection runs the given deviation rules, if any.
func newPeers(t *testing.T, n int, rules ...deviation.Rule) []*proto.Peer {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	peers := make([]*proto.Peer, n)
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		var c transport.Conn = conn
		if i == n-1 && len(rules) > 0 {
			c = deviation.Wrap(conn, rules...)
		}
		peers[i] = proto.NewPeer(c, ids)
		t.Cleanup(func(p *proto.Peer) func() { return func() { p.Close() } }(peers[i]))
	}
	return peers
}

// assertCulprit checks that err is a protocol abort pinned on culprit.
func assertCulprit(t *testing.T, who string, err error, culprit wire.NodeID) {
	t.Helper()
	var ae *proto.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("%s: got %v, want abort", who, err)
	}
	if ae.Code != proto.AbortProtocol || ae.Culprit != culprit {
		t.Errorf("%s: abort %v culprit %d, want protocol culprit %d (reason %q)", who, ae.Code, ae.Culprit, culprit, ae.Reason)
	}
}

// tossAll runs Toss concurrently at every peer and returns per-peer results.
func tossAll(t *testing.T, peers []*proto.Peer, round uint64, instance uint32) ([]uint64, []error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seeds := make([]uint64, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			seeds[i], errs[i] = Toss(ctx, p, round, instance)
		}(i, p)
	}
	wg.Wait()
	return seeds, errs
}

func TestHonestTossAgrees(t *testing.T) {
	peers := newPeers(t, 4)
	seeds, errs := tossAll(t, peers, 1, 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := 1; i < len(seeds); i++ {
		if seeds[i] != seeds[0] {
			t.Fatalf("seeds disagree: %v", seeds)
		}
	}
}

func TestInstancesIndependent(t *testing.T) {
	peers := newPeers(t, 3)
	s1, errs := tossAll(t, peers, 1, 0)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s2, errs := tossAll(t, peers, 1, 1)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s1[0] == s2[0] {
		t.Error("two instances produced the same seed; not impossible but vanishingly unlikely")
	}
}

func TestSeedsLookUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	peers := newPeers(t, 3)
	const rounds = 64
	ones := 0
	for r := uint64(1); r <= rounds; r++ {
		seeds, errs := tossAll(t, peers, r, 0)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		ones += bits.OnesCount64(seeds[0])
	}
	// 64 seeds × 64 bits: expect ≈2048 ones; allow a wide ±6σ band
	// (σ = sqrt(4096×0.25) = 32).
	if ones < 2048-200 || ones > 2048+200 {
		t.Errorf("bit count %d outside plausible band around 2048", ones)
	}
}

// Provider 3 commits to one share but opens a different one under the same
// salt: its own opening fails its own commitment, so it alone is blamed.
func TestTamperedRevealAborts(t *testing.T) {
	peers := newPeers(t, 3, deviation.Rule{
		Match:  deviation.MatchBlockStep(wire.BlockCoin, stepReveal),
		Action: deviation.Mutate,
		Transform: func(env wire.Envelope) wire.Envelope {
			op, err := commit.DecodeOpeningView(env.Payload)
			if err != nil {
				return env
			}
			lie := append([]byte(nil), op.Value...)
			lie[0] ^= 0xFF
			env.Payload = commit.EncodeOpening(commit.Opening{Salt: op.Salt, Value: lie})
			return env
		},
	})
	_, errs := tossAll(t, peers, 1, 0)
	for i := 0; i < 2; i++ {
		assertCulprit(t, fmt.Sprintf("honest peer %d", i+1), errs[i], 3)
	}
}

// A provider that equivocates its commitment across receivers must be caught
// by the echo phase, i.e. the round aborts with all shares still hidden.
// Provider 3 flips its commitment toward provider 1 only and otherwise runs
// the protocol: each provider saw a consistent set of its own, so the echo
// mismatch shows a lie but not whose, and nobody is blamed.
func TestEquivocatedCommitAborts(t *testing.T) {
	peers := newPeers(t, 3, deviation.Rule{
		Match:     deviation.And(deviation.MatchBlockStep(wire.BlockCoin, stepCommit), deviation.MatchReceiver(1)),
		Action:    deviation.Mutate,
		Transform: deviation.FlipPayloadByte(),
	})
	_, errs := tossAll(t, peers, 1, 0)
	for i := 0; i < 2; i++ {
		assertCulprit(t, fmt.Sprintf("honest peer %d", i+1), errs[i], wire.Broadcast)
	}
}

// A silent provider stalls the coin; the deadline converts that into ⊥ for
// everyone rather than a hang.
func TestSilentProviderAborts(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Toss(ctx, peers[i], 1, 0)
		}(i)
	}
	wg.Wait()
	// peers[2] never participated.
	for i, err := range errs {
		if err == nil {
			t.Errorf("honest peer %d: expected failure", i)
		}
	}
	// After the first timeout the round is ⊥ everywhere.
	if err := peers[0].AbortErr(1); !errors.Is(err, proto.ErrAborted) {
		t.Errorf("round not aborted after silence: %v", err)
	}
}

func TestMalformedCommitAborts(t *testing.T) {
	peers := newPeers(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	var honestErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, honestErr = Toss(ctx, peers[0], 1, 0)
	}()

	commitTag := wire.Tag{Round: 1, Block: wire.BlockCoin, Instance: 0, Step: stepCommit}
	if err := peers[1].BroadcastProviders(commitTag, []byte("short")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	assertCulprit(t, "honest peer", honestErr, 2)
}

func TestTossOnAbortedRound(t *testing.T) {
	peers := newPeers(t, 2)
	peers[0].Fail(5, "test", errors.New("pre-aborted"))
	ctx := context.Background()
	if _, err := Toss(ctx, peers[0], 5, 0); !errors.Is(err, proto.ErrAborted) {
		t.Errorf("got %v, want abort", err)
	}
}

// reservoirAll creates one reservoir per peer for round.
func reservoirAll(peers []*proto.Peer, round uint64, gated bool) []*Reservoir {
	rs := make([]*Reservoir, len(peers))
	for i, p := range peers {
		rs[i] = NewReservoir(p, round, time.Time{})
		if !gated {
			rs[i].Release()
		}
	}
	return rs
}

// Prefetched instances must resolve concurrently and agree across peers.
func TestReservoirPrefetchAgrees(t *testing.T) {
	peers := newPeers(t, 4)
	rs := reservoirAll(peers, 1, false)
	instances := []uint32{1 << 8, 1<<8 | 1, 2 << 8}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	seeds := make([][]uint64, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *Reservoir) {
			defer wg.Done()
			defer r.Close()
			r.Prefetch(ctx, instances...)
			for _, inst := range instances {
				seed, err := r.Seed(ctx, inst)
				if err != nil {
					errs[i] = err
					return
				}
				seeds[i] = append(seeds[i], seed)
			}
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := 1; i < len(seeds); i++ {
		for j := range instances {
			if seeds[i][j] != seeds[0][j] {
				t.Fatalf("instance %d: peer %d disagrees", instances[j], i)
			}
		}
	}
	if seeds[0][0] == seeds[0][1] && seeds[0][1] == seeds[0][2] {
		t.Error("three instances yielded the same seed; astronomically unlikely")
	}
}

// A gated reservoir must not let any seed resolve before every peer
// releases — the reveal is withheld, not just delayed.
func TestReservoirGatedWithholdsReveal(t *testing.T) {
	peers := newPeers(t, 3)
	rs := reservoirAll(peers, 1, true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var resolved atomic.Int32
	seeds := make([]uint64, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, r := range rs {
		r.Prefetch(ctx, 7)
		wg.Add(1)
		go func(i int, r *Reservoir) {
			defer wg.Done()
			seeds[i], errs[i] = r.Seed(ctx, 7)
			resolved.Add(1)
		}(i, r)
	}

	time.Sleep(200 * time.Millisecond) // commit+echo done; reveals gated
	if n := resolved.Load(); n != 0 {
		t.Fatalf("%d seeds resolved before release", n)
	}
	for _, r := range rs {
		r.Release()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if seeds[i] != seeds[0] {
			t.Fatalf("peer %d disagrees", i)
		}
	}
	for _, r := range rs {
		r.Close()
	}
}

// Prefetching an instance twice (or racing Prefetch with Seed) must toss it
// once: a second toss would re-draw the share under the same tag, which the
// peers would flag as equivocation and abort.
func TestReservoirDedupesInstances(t *testing.T) {
	peers := newPeers(t, 3)
	rs := reservoirAll(peers, 1, false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *Reservoir) {
			defer wg.Done()
			defer r.Close()
			r.Prefetch(ctx, 3, 3)
			r.Prefetch(ctx, 3)
			if _, err := r.Seed(ctx, 3); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = r.Seed(ctx, 3)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v (duplicate toss → equivocation?)", i, err)
		}
	}
}

// Tosses parked at a gated reveal must unwind when the round aborts and the
// engine closes the reservoir (its abort path), returning ⊥.
func TestReservoirAbortUnwindsGatedToss(t *testing.T) {
	peers := newPeers(t, 3)
	rs := reservoirAll(peers, 1, true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, r := range rs {
		r.Prefetch(ctx, 9)
	}
	time.Sleep(100 * time.Millisecond) // let commit/echo complete

	peers[0].Fail(1, "test", errors.New("test abort"))
	var wg sync.WaitGroup
	errs := make([]error, len(peers))
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *Reservoir) {
			defer wg.Done()
			r.Close() // abort path: open the gate, join the toss
			_, errs[i] = r.Seed(ctx, 9)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, proto.ErrAborted) {
			t.Errorf("peer %d: got %v, want ⊥", i, err)
		}
	}
}
