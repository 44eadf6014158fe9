package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomBatch builds a random superframe with n envelopes sharing from/to.
// withMACs attaches random per-envelope MACs (the mixed-auth layout).
func randomBatch(rng *rand.Rand, from, to NodeID, n int, withMACs bool) Superframe {
	sf := Superframe{From: from, To: to, Envs: make([]Envelope, n)}
	for i := range sf.Envs {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		sf.Envs[i] = Envelope{
			From: from,
			To:   to,
			Tag: Tag{
				Round:    rng.Uint64() >> uint(rng.Intn(60)),
				Block:    BlockID(1 + rng.Intn(int(blockIDSentinel)-1)),
				Instance: rng.Uint32(),
				Step:     uint8(rng.Intn(8)),
			},
			Payload: payload,
		}
		if withMACs {
			mac := make([]byte, 32)
			rng.Read(mac)
			sf.Envs[i].MAC = mac
		}
	}
	return sf
}

func sameBatch(t *testing.T, want, got Superframe) {
	t.Helper()
	if got.From != want.From || got.To != want.To {
		t.Fatalf("endpoints: got %d->%d want %d->%d", got.From, got.To, want.From, want.To)
	}
	if len(got.Envs) != len(want.Envs) {
		t.Fatalf("envelope count: got %d want %d", len(got.Envs), len(want.Envs))
	}
	for i := range want.Envs {
		w, g := &want.Envs[i], &got.Envs[i]
		if g.From != w.From || g.To != w.To || g.Tag != w.Tag {
			t.Fatalf("envelope %d header: got %+v want %+v", i, g, w)
		}
		if !bytes.Equal(g.Payload, w.Payload) || !bytes.Equal(g.MAC, w.MAC) {
			t.Fatalf("envelope %d body mismatch", i)
		}
	}
	if !bytes.Equal(got.MAC, want.MAC) {
		t.Fatalf("batch MAC mismatch")
	}
}

// TestSuperframeRoundTripProperty round-trips random batches — including
// size 1 and the maximum size — through both the copying and the view
// decoder. Run under -race in CI.
func TestSuperframeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 3, MaxSuperframeEnvs}
	for trial := 0; trial < 200; trial++ {
		n := sizes[trial%len(sizes)]
		if n > 8 && trial > len(sizes) { // cap the giant case to the first pass
			n = 1 + rng.Intn(32)
		}
		withMACs := trial%3 == 0
		sf := randomBatch(rng, NodeID(rng.Uint32()>>1), NodeID(rng.Uint32()>>1), n, withMACs)
		if trial%2 == 0 {
			mac := make([]byte, 32)
			rng.Read(mac)
			sf.MAC = mac
		}
		raw := sf.Encode()
		if _, err := DecodeEnvelope(raw); err == nil {
			t.Fatalf("trial %d: superframe decoded as a plain envelope", trial)
		}
		dec, err := DecodeSuperframe(raw)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		sameBatch(t, sf, dec)
		view, err := DecodeSuperframeView(raw)
		if err != nil {
			t.Fatalf("trial %d: decode view: %v", trial, err)
		}
		sameBatch(t, sf, view)
	}
}

// TestSuperframeEncodingIsEnvelopeBytes asserts the transport-equivalence
// claim at the codec level: every envelope decoded out of a superframe is
// byte-for-byte the envelope that was put in (same tag, payload, MAC, and
// the shared From/To stamped back on).
func TestSuperframeEncodingIsEnvelopeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sf := randomBatch(rng, 3, 9, 16, true)
	raw := sf.Encode()
	dec, err := DecodeSuperframeView(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sf.Envs {
		want := sf.Envs[i].Encode()
		got := dec.Envs[i].Encode()
		if !bytes.Equal(want, got) {
			t.Fatalf("envelope %d: batched bytes differ from standalone bytes", i)
		}
	}
}

// TestSuperframeDecodeRejectsCorruption fuzzes structural corruption: no
// input may decode as both valid and different, and none may panic.
func TestSuperframeDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sf := randomBatch(rng, 1, 2, 5, false)
	raw := sf.Encode()

	if _, err := DecodeSuperframe(nil); err == nil {
		t.Fatal("nil input decoded")
	}
	if _, err := DecodeSuperframe(raw[:3]); err == nil {
		t.Fatal("marker-truncated input decoded")
	}
	// Not-a-marker: a plain envelope must not be taken for a superframe.
	env := Envelope{From: 1, To: 2, Tag: Tag{Round: 1, Block: BlockTask, Step: 1}}
	if _, err := DecodeSuperframe(env.Encode()); err == nil {
		t.Fatal("plain envelope decoded as superframe")
	}
	// Truncations at every boundary must error, never panic.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeSuperframe(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeSuperframe(append(append([]byte{}, raw...), 0xAB)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A zero-envelope superframe is invalid.
	empty := Superframe{From: 1, To: 2}
	if _, err := DecodeSuperframe(empty.Encode()); err == nil {
		t.Fatal("empty superframe decoded")
	}
}
