package consensus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
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
	peers, _ := newDeviantPeers(t, n, rules...)
	return peers
}

// newDeviantPeers is newPeers that also returns provider n's deviation
// wrapper (nil without rules), whose Matched counter shows a rule fired.
func newDeviantPeers(t *testing.T, n int, rules ...deviation.Rule) ([]*proto.Peer, *deviation.Conn) {
	t.Helper()
	var deviant *deviation.Conn
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
			deviant = deviation.Wrap(conn, rules...)
			c = deviant
		}
		peers[i] = proto.NewPeer(c, ids)
		t.Cleanup(func(p *proto.Peer) func() { return func() { p.Close() } }(peers[i]))
	}
	return peers, deviant
}

// assertCulprit checks that err is a protocol abort pinned on culprit.
func assertCulprit(t *testing.T, who string, err error, culprit wire.NodeID) {
	t.Helper()
	assertAbort(t, who, err, proto.AbortProtocol, culprit)
}

// assertAbort checks that err is an abort with the given code and culprit.
func assertAbort(t *testing.T, who string, err error, code proto.AbortCode, culprit wire.NodeID) {
	t.Helper()
	var ae *proto.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("%s: got %v, want abort", who, err)
	}
	if ae.Code != code || ae.Culprit != culprit {
		t.Errorf("%s: abort %v culprit %d, want %v culprit %d (reason %q)", who, ae.Code, ae.Culprit, code, culprit, ae.Reason)
	}
}

// proposeAll runs Propose at every peer with the given per-peer inputs.
func proposeAll(t *testing.T, peers []*proto.Peer, round uint64, inputs [][][]byte) ([][][]byte, []error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	outs := make([][][]byte, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			outs[i], errs[i] = Propose(ctx, p, round, 0, inputs[i])
		}(i, p)
	}
	wg.Wait()
	return outs, errs
}

func sameVectors(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestAgreementAndValidityUnanimous(t *testing.T) {
	peers := newPeers(t, 4)
	// The last slot is a bidder that never submitted: it must stay empty,
	// which bid decoding then turns into the neutral bid.
	input := [][]byte{[]byte("bid-alice"), []byte("bid-bob"), []byte("bid-carol"), nil}
	inputs := make([][][]byte, 4)
	for i := range inputs {
		inputs[i] = input
	}
	outs, errs := proposeAll(t, peers, 1, inputs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := range outs {
		if !sameVectors(outs[i], input) {
			t.Errorf("peer %d output %q, want the unanimous input", i, outs[i])
		}
	}
}

func TestAgreementWithDisputedSlot(t *testing.T) {
	peers := newPeers(t, 3)
	// Slot 0 unanimous; slot 1 disputed (a bidder equivocated its bid).
	inputs := [][][]byte{
		{[]byte("same"), []byte("v-from-1")},
		{[]byte("same"), []byte("v-from-2")},
		{[]byte("same"), []byte("v-from-3")},
	}
	outs, errs := proposeAll(t, peers, 1, inputs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	// All providers agree.
	for i := 1; i < len(outs); i++ {
		if !sameVectors(outs[i], outs[0]) {
			t.Fatalf("outputs disagree:\n%q\n%q", outs[0], outs[i])
		}
	}
	// Slot 0 kept the unanimous value; slot 1 is one of the proposals.
	if string(outs[0][0]) != "same" {
		t.Errorf("unanimous slot changed: %q", outs[0][0])
	}
	got := string(outs[0][1])
	if got != "v-from-1" && got != "v-from-2" && got != "v-from-3" {
		t.Errorf("disputed slot %q is nobody's proposal", got)
	}
}

func TestDisputedSlotLeaderVaries(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	peers := newPeers(t, 3)
	winners := map[string]int{}
	for r := uint64(1); r <= 40; r++ {
		inputs := [][][]byte{
			{[]byte("a")}, {[]byte("b")}, {[]byte("c")},
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		outs := make([][][]byte, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func(i int, p *proto.Peer) {
				defer wg.Done()
				outs[i], errs[i] = Propose(ctx, p, r, 0, inputs[i])
			}(i, p)
		}
		wg.Wait()
		cancel()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d peer %d: %v", r, i, err)
			}
		}
		winners[string(outs[0][0])]++
	}
	// Each of the three proposals should win sometimes: P(never in 40) ≈ 9e-8.
	for _, v := range []string{"a", "b", "c"} {
		if winners[v] == 0 {
			t.Errorf("proposal %q never chosen in 40 rounds: %v", v, winners)
		}
	}
}

func TestSlotCountMismatchAborts(t *testing.T) {
	// Provider 3 withholds its own abort: by its slot count the others are
	// the odd ones out, and its abort would race the honest verdict.
	peers := newPeers(t, 3, deviation.Rule{Match: deviation.MatchBlock(wire.BlockControl), Action: deviation.Drop})
	inputs := [][][]byte{
		{[]byte("x"), []byte("y")},
		{[]byte("x"), []byte("y")},
		{[]byte("x")}, // deviant claims fewer bidders
	}
	_, errs := proposeAll(t, peers, 1, inputs)
	for i := 0; i < 2; i++ {
		assertCulprit(t, fmt.Sprintf("honest peer %d", i+1), errs[i], 3)
	}
}

// Provider 3 commits to its proposal digest but opens a different one under
// the same salt: its own opening fails its own commitment. Its input differs
// from the others', so the round takes the fallback, where reveals exist.
func TestTamperedRevealAborts(t *testing.T) {
	peers, deviant := newDeviantPeers(t, 3, deviation.Rule{
		Match:  deviation.MatchBlockStep(wire.BlockBidAgree, 3),
		Action: deviation.Mutate,
		Transform: func(env wire.Envelope) wire.Envelope {
			op, err := commit.DecodeOpeningView(env.Payload)
			if err != nil {
				return env
			}
			lie := append([]byte(nil), op.Value...)
			lie[len(lie)-1] ^= 0xFF
			env.Payload = commit.EncodeOpening(commit.Opening{Salt: op.Salt, Value: lie})
			return env
		},
	})
	in := [][]byte{[]byte("v")}
	_, errs := proposeAll(t, peers, 1, [][][]byte{in, in, {[]byte("w")}})
	for i := 0; i < 2; i++ {
		assertCulprit(t, fmt.Sprintf("honest peer %d", i+1), errs[i], 3)
	}
	if fired := deviant.Matched.Load(); fired == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

func TestSilentProviderTimesOutToAbort(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Propose(ctx, peers[i], 1, 0, [][]byte{[]byte("v")})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("peer %d succeeded despite silent provider", i)
		}
	}
}

func TestProposeOnAbortedRound(t *testing.T) {
	peers := newPeers(t, 2)
	peers[0].Fail(9, "test", errors.New("pre"))
	if _, err := Propose(context.Background(), peers[0], 9, 0, nil); !errors.Is(err, proto.ErrAborted) {
		t.Errorf("got %v, want abort", err)
	}
}

// TestDigestFastPathSkipsVectorStep asserts the fast path's defining
// property at the wire level: with unanimous inputs no commit and no
// stepVector message is ever sent, while disputed inputs trigger exactly
// one fallback exchange.
func TestDigestFastPathSkipsVectorStep(t *testing.T) {
	peers := newPeers(t, 3)
	ids := []wire.NodeID{1, 2, 3}

	// Unanimous round: fast path, no vector exchange.
	input := [][]byte{[]byte("same-a"), []byte("same-b")}
	outs, errs := proposeAll(t, peers, 1, [][][]byte{input, input, input})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := range outs {
		if !sameVectors(outs[i], input) {
			t.Fatalf("peer %d: fast path changed the unanimous vector", i)
		}
	}
	for i, p := range peers {
		for _, step := range []uint8{stepCommit, stepVector} {
			if _, err := p.Receive(canceledCtx(), wire.Tag{
				Round: 1, Block: wire.BlockBidAgree, Instance: 0, Step: step,
			}, ids[(i+1)%len(ids)]); err == nil {
				t.Fatalf("peer %d buffered a step-%d message on the fast path", i, step)
			}
		}
	}

	// Disputed round: the fallback must have exchanged vectors.
	disputed := [][][]byte{
		{[]byte("x")}, {[]byte("x")}, {[]byte("y")},
	}
	outs, errs = proposeAll(t, peers, 2, disputed)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := 1; i < len(outs); i++ {
		if !sameVectors(outs[i], outs[0]) {
			t.Fatal("fallback outputs disagree")
		}
	}
	for i, p := range peers {
		if _, err := p.Receive(canceledCtx(), wire.Tag{
			Round: 2, Block: wire.BlockBidAgree, Instance: 0, Step: stepVector,
		}, ids[(i+1)%len(ids)]); err != nil {
			t.Fatalf("peer %d: no stepVector message buffered on the fallback path: %v", i, err)
		}
	}
}

// canceledCtx returns an already-expired context: Receive with it reports a
// buffered message instantly or fails without blocking.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestFallbackVectorCorruptionAborts forces the digest-mismatch fallback
// (disputed inputs) while one provider corrupts its full-vector message. The
// corrupted vector cannot open the committed digest, so honest providers
// must abort with the deviant attributed.
func TestFallbackVectorCorruptionAborts(t *testing.T) {
	peers := newPeers(t, 3, deviation.Rule{
		Match:     deviation.MatchBlockStep(wire.BlockBidAgree, stepVector),
		Action:    deviation.Mutate,
		Transform: deviation.FlipPayloadByte(),
	})

	inputs := [][][]byte{
		{[]byte("x")}, {[]byte("x")}, {[]byte("z")}, // dispute forces the fallback
	}
	_, errs := proposeAll(t, peers, 1, inputs)
	for i := 0; i < 2; i++ {
		assertCulprit(t, fmt.Sprintf("honest peer %d", i+1), errs[i], 3)
	}
}

func TestProposalRoundTrip(t *testing.T) {
	for _, p := range []proposal{
		{share: 0, values: nil},
		{share: 42, values: [][]byte{[]byte("a"), nil, []byte("ccc")}},
	} {
		got, err := decodeProposal(encodeProposal(p))
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got.share != p.share || len(got.values) != len(p.values) {
			t.Errorf("round trip mismatch: %+v vs %+v", got, p)
		}
		for i := range p.values {
			if !bytes.Equal(got.values[i], p.values[i]) {
				t.Errorf("slot %d mismatch", i)
			}
		}
	}
}

func TestDecodeProposalGarbage(t *testing.T) {
	cases := [][]byte{nil, {1}, bytes.Repeat([]byte{0xFF}, 40)}
	for _, c := range cases {
		if _, err := decodeProposal(c); err == nil {
			t.Errorf("garbage %v decoded", c)
		}
	}
	// Slot-count bomb: header claims 2^30 slots.
	enc := wire.NewEncoder(32)
	enc.Uint64(1)
	enc.Uvarint(1 << 30)
	if _, err := decodeProposal(enc.Buffer()); err == nil {
		t.Error("slot bomb decoded")
	}
}

func TestManySlots(t *testing.T) {
	peers := newPeers(t, 3)
	const slots = 500
	input := make([][]byte, slots)
	for i := range input {
		input[i] = []byte(fmt.Sprintf("bid-%d", i))
	}
	inputs := [][][]byte{input, input, input}
	outs, errs := proposeAll(t, peers, 1, inputs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	if !sameVectors(outs[0], input) || !sameVectors(outs[1], input) {
		t.Error("large unanimous vector mangled")
	}
}

// Property: for arbitrary disputed proposals, all honest providers output
// the same vector and every slot is one of the proposals for that slot.
func TestQuickAgreementProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up many clusters")
	}
	peers := newPeers(t, 3)
	for round := uint64(1); round <= 15; round++ {
		inputs := make([][][]byte, 3)
		slots := 1 + int(round%4)
		for pi := range inputs {
			inputs[pi] = make([][]byte, slots)
			for s := range inputs[pi] {
				// Providers 0 and 1 agree; provider 2 disputes odd slots.
				val := fmt.Sprintf("v%d", s)
				if pi == 2 && s%2 == 1 {
					val = fmt.Sprintf("w%d", s)
				}
				inputs[pi][s] = []byte(val)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		outs := make([][][]byte, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func(i int, p *proto.Peer) {
				defer wg.Done()
				outs[i], errs[i] = Propose(ctx, p, round, 0, inputs[i])
			}(i, p)
		}
		wg.Wait()
		cancel()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d peer %d: %v", round, i, err)
			}
		}
		for i := 1; i < 3; i++ {
			if !sameVectors(outs[i], outs[0]) {
				t.Fatalf("round %d: disagreement", round)
			}
		}
		for s := 0; s < slots; s++ {
			got := string(outs[0][s])
			want1 := fmt.Sprintf("v%d", s)
			want2 := fmt.Sprintf("w%d", s)
			if got != want1 && got != want2 {
				t.Fatalf("round %d slot %d: %q is nobody's proposal", round, s, got)
			}
		}
		for _, p := range peers {
			p.EndRound(round)
		}
	}
}

// TestSplitViewAbortsAtOnce: provider 3 sends provider 1 a digest other
// than the one it sends provider 2. Provider 1 sees a mismatch and takes
// the fallback; providers 2 and 3 see m equal digests and take the digest
// path. Provider 1's fallback commit then lands at providers that decided,
// which latch ⊥ at ingest: every provider's round is ⊥ long before the
// gathers' 10 s deadline, the honest ones' with an unattributed protocol
// abort. (In a session the decided providers' task graphs cannot finish
// meanwhile: their final digest gather waits on provider 1.)
func TestSplitViewAbortsAtOnce(t *testing.T) {
	peers, deviant := newDeviantPeers(t, 3, deviation.Rule{
		Match:     deviation.MatchBlockStep(wire.BlockBidAgree, stepDigest),
		Action:    deviation.Mutate,
		Transform: deviation.EquivocateTo(1),
	})
	in := [][]byte{[]byte("v")}
	start := time.Now()
	_, errs := proposeAll(t, peers, 1, [][][]byte{in, in, in})
	if errs[0] == nil {
		t.Fatal("peer 1 saw a different digest from peer 3 but decided")
	}
	// A receive nothing will satisfy ends when the round aborts.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	never := wire.Tag{Round: 1, Block: wire.BlockTask, Step: 1}
	for i := 1; i < 3; i++ {
		if _, err := peers[i].Receive(ctx, never, 1); !errors.Is(err, proto.ErrAborted) {
			t.Fatalf("peer %d: %v, want ⊥", i+1, err)
		}
	}
	if took := time.Since(start); took >= time.Second {
		t.Errorf("split view ended after %v, want ⊥ everywhere in < 1s", took)
	}
	for i := 0; i < 2; i++ {
		assertAbort(t, fmt.Sprintf("honest peer %d", i+1), peers[i].AbortErr(1), proto.AbortProtocol, wire.Broadcast)
	}
	if deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

// TestForbiddenCommitAlreadyBuffered: a fallback commit that reaches a
// provider while its own digest gather is still open is only buffered; the
// provider's digest path then finds it and ends ⊥ at once.
func TestForbiddenCommitAlreadyBuffered(t *testing.T) {
	peers := newPeers(t, 2)
	commitTag := wire.Tag{Round: 1, Block: wire.BlockBidAgree, Step: stepCommit}
	if err := peers[1].Send(1, commitTag, make([]byte, commit.Size)); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].AbortErr(1); err != nil {
		t.Fatalf("a commit before the digest gather closed aborted the round: %v", err)
	}
	in := [][]byte{[]byte("v")}
	_, errs := proposeAll(t, peers, 1, [][][]byte{in, in})
	assertAbort(t, "peer 1", errs[0], proto.AbortProtocol, wire.Broadcast)
}

// TestCommitOffBroadcastDigestAborts: provider 3 broadcasts a digest other
// than its vector's (to everyone alike), then commits to its vector's true
// digest on the fallback, which provider 1's different input forces. The
// commitment does not match what it broadcast: a protocol abort charged to
// provider 3.
func TestCommitOffBroadcastDigestAborts(t *testing.T) {
	peers, deviant := newDeviantPeers(t, 3, deviation.Rule{
		Match:     deviation.MatchBlockStep(wire.BlockBidAgree, stepDigest),
		Action:    deviation.Mutate,
		Transform: deviation.FlipPayloadByte(),
	})
	in := [][]byte{[]byte("v")}
	_, errs := proposeAll(t, peers, 1, [][][]byte{{[]byte("w")}, in, in})
	for i := 0; i < 2; i++ {
		assertCulprit(t, fmt.Sprintf("honest peer %d", i+1), errs[i], 3)
	}
	if deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

// TestMalformedDigestAborts: provider 3's digest is one byte short. It is
// its own message failing its shape: a protocol abort charged to it.
func TestMalformedDigestAborts(t *testing.T) {
	peers, deviant := newDeviantPeers(t, 3, deviation.Rule{
		Match:  deviation.MatchBlockStep(wire.BlockBidAgree, stepDigest),
		Action: deviation.Mutate,
		Transform: func(env wire.Envelope) wire.Envelope {
			env.Payload = env.Payload[:len(env.Payload)-1]
			return env
		},
	})
	in := [][]byte{[]byte("v")}
	_, errs := proposeAll(t, peers, 1, [][][]byte{in, in, in})
	for i := 0; i < 2; i++ {
		assertCulprit(t, fmt.Sprintf("honest peer %d", i+1), errs[i], 3)
	}
	if deviant.Matched.Load() == 0 {
		t.Error("rule never fired; test is vacuous")
	}
}

// TestBindingObservedOncePerPath: the binding observer (the round engine's
// coin gate) runs exactly once at every provider on both branches — at the
// digest gather on the digest path, at the exchange's hook on the
// fallback — and the branch is reported.
func TestBindingObservedOncePerPath(t *testing.T) {
	peers := newPeers(t, 3)
	same := [][]byte{[]byte("v")}
	for _, c := range []struct {
		name      string
		round     uint64
		inputs    [][][]byte
		unanimous bool
	}{
		{"digest path", 1, [][][]byte{same, same, same}, true},
		{"fallback", 2, [][][]byte{same, same, {[]byte("w")}}, false},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func(i int, p *proto.Peer) {
				defer wg.Done()
				calls := 0
				_, unanimous, err := ProposeObserved(ctx, p, c.round, 0, c.inputs[i], func() { calls++ })
				switch {
				case err != nil:
					t.Errorf("%s, peer %d: %v", c.name, i+1, err)
				case calls != 1:
					t.Errorf("%s, peer %d: binding observed %d times, want 1", c.name, i+1, calls)
				case unanimous != c.unanimous:
					t.Errorf("%s, peer %d: unanimous = %v, want %v", c.name, i+1, unanimous, c.unanimous)
				}
			}(i, p)
		}
		wg.Wait()
		cancel()
	}
}
