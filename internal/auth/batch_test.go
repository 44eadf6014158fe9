package auth

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"distauction/internal/wire"
)

// testBatch builds an n-envelope superframe 1 -> 2 with distinct payloads.
func testBatch(n int) wire.Superframe {
	sf := wire.Superframe{From: 1, To: 2, Envs: make([]wire.Envelope, n)}
	for i := range sf.Envs {
		sf.Envs[i] = wire.Envelope{
			From:    1,
			To:      2,
			Tag:     wire.Tag{Round: uint64(i + 1), Block: wire.BlockTask, Instance: uint32(i), Step: 1},
			Payload: []byte{byte(i), byte(i >> 8), 0xAA},
		}
	}
	return sf
}

// signBatch installs r's batch MAC on sf the way the TCP transport does:
// one SignBatchBytes over the bytes SignedBytesTo writes.
func signBatch(t *testing.T, r *Registry, sf *wire.Superframe) {
	t.Helper()
	enc := wire.NewEncoder(sf.EncodedSize())
	sf.SignedBytesTo(enc)
	var sum [KeySize]byte
	if err := r.SignBatchBytes(sf.To, enc.Buffer(), &sum); err != nil {
		t.Fatal(err)
	}
	sf.MAC = sum[:]
}

// verifyFrame checks raw at r the way the TCP read loop does: a view
// decode, then one VerifyBatchView over the received bytes.
func verifyFrame(t *testing.T, r *Registry, raw []byte) error {
	t.Helper()
	sf, err := wire.DecodeSuperframeView(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return r.VerifyBatchView(&sf, raw)
}

// wantBadMACFrom checks that err is a batch MAC failure charged to from.
func wantBadMACFrom(t *testing.T, what string, err error, from wire.NodeID) {
	t.Helper()
	switch {
	case err == nil:
		t.Errorf("%s: frame verified", what)
	case !errors.Is(err, ErrBadMAC):
		t.Errorf("%s: error %v does not match ErrBadMAC", what, err)
	case !strings.HasSuffix(err.Error(), fmt.Sprintf("superframe from %d", from)):
		t.Errorf("%s: failure not attributed to sender %d: %v", what, from, err)
	}
}

func TestSignVerifyBatch(t *testing.T) {
	r1, r2 := twoNodeRegistries(t)
	for _, n := range []int{1, 8} {
		sf := testBatch(n)
		signBatch(t, r1, &sf)
		if len(sf.MAC) != KeySize {
			t.Fatalf("batch of %d: MAC is %d bytes", n, len(sf.MAC))
		}
		if err := verifyFrame(t, r2, sf.Encode()); err != nil {
			t.Fatalf("batch of %d: verify: %v", n, err)
		}
	}
}

// TestBatchMACRejectsWrongShape covers what the batch MAC binds besides
// the envelopes: the signer needs a key for the destination, the verifier
// one for the claimed sender, and the MAC field must be spelt as signed.
func TestBatchMACRejectsWrongShape(t *testing.T) {
	r1, _ := twoNodeRegistries(t)
	var sum [KeySize]byte
	if err := r1.SignBatchBytes(99, []byte("signed"), &sum); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("batch-signing for an unknown peer: %v", err)
	}

	// Node 2 also knows node 3: a frame node 1 signed, relabelled as node
	// 3's, is checked under key (3, 2) and charged to node 3.
	r2 := NewRegistryFromMaster([]byte("test-master-secret"), 2, []wire.NodeID{1, 2, 3})
	sf := testBatch(3)
	signBatch(t, r1, &sf)
	sf.From = 3
	wantBadMACFrom(t, "relabelled sender", verifyFrame(t, r2, sf.Encode()), 3)
	sf.From = 4
	if err := verifyFrame(t, r2, sf.Encode()); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("frame from an unknown sender: %v", err)
	}

	// The MAC's length respelled as a two-byte uvarint decodes to the same
	// superframe but is not the byte string node 1 signed.
	sf = testBatch(3)
	signBatch(t, r1, &sf)
	raw := sf.Encode()
	cut := len(raw) - 1 - KeySize
	respelled := append(append(bytes.Clone(raw[:cut]), 0x80|KeySize, 0x00), sf.MAC...)
	wantBadMACFrom(t, "respelled MAC length", verifyFrame(t, r2, respelled), 1)
}

// TestVerifyBatchRejectsTampering changes every part of a signed superframe
// in turn, re-encodes it under the original MAC, and checks the received
// frame fails, charged to the sending peer.
func TestVerifyBatchRejectsTampering(t *testing.T) {
	r1, r2 := twoNodeRegistries(t)
	for name, tamper := range map[string]func(*wire.Superframe){
		"payload":      func(sf *wire.Superframe) { sf.Envs[3].Payload[0] ^= 1 },
		"tag":          func(sf *wire.Superframe) { sf.Envs[5].Tag.Step = 9 },
		"link seq":     func(sf *wire.Superframe) { sf.Envs[2].LinkSeq++ },
		"link ack":     func(sf *wire.Superframe) { sf.Envs[6].LinkAck = 7 },
		"batch MAC":    func(sf *wire.Superframe) { sf.MAC[0] ^= 1 },
		"dropped env":  func(sf *wire.Superframe) { sf.Envs = sf.Envs[:len(sf.Envs)-1] },
		"reorder envs": func(sf *wire.Superframe) { sf.Envs[0], sf.Envs[1] = sf.Envs[1], sf.Envs[0] },
	} {
		sf := testBatch(8)
		signBatch(t, r1, &sf)
		tamper(&sf)
		wantBadMACFrom(t, name, verifyFrame(t, r2, sf.Encode()), 1)
	}
}

// TestVerifyBatchWrongRecipient mirrors the envelope rule.
func TestVerifyBatchWrongRecipient(t *testing.T) {
	r1, r2 := twoNodeRegistries(t)
	sf := testBatch(2)
	signBatch(t, r1, &sf)
	sf.To = 1
	if err := verifyFrame(t, r2, sf.Encode()); err == nil {
		t.Error("superframe addressed elsewhere must fail verification")
	}
}

// benchPayload is the benchmark message size: a digest-mode consensus
// proposal (32-byte digest + 8-byte share header) — the dominant message of
// the fast path — so amortisation is measured on what the wire carries.
const benchPayload = 40

func benchEnvs(k int) []wire.Envelope {
	envs := make([]wire.Envelope, k)
	for i := range envs {
		envs[i] = wire.Envelope{
			From:    1,
			To:      2,
			Tag:     wire.Tag{Round: uint64(i + 1), Block: wire.BlockTask, Instance: uint32(i), Step: 1},
			Payload: make([]byte, benchPayload),
		}
	}
	return envs
}

// BenchmarkSuperframeSignVerify measures the amortised per-envelope cost of
// batch authentication on the stream-transport path — ONE encode shared
// with framing, one SignBatchBytes at the sender, one VerifyBatchBytes over
// the received bytes — against the per-envelope path (one Sign + one Verify
// per envelope, each with its own internal encode; batch=1 and the
// `envelope` sub-bench). The acceptance target is an amortised cost <= 1/4
// of the per-envelope figure at batch size 8.
func BenchmarkSuperframeSignVerify(b *testing.B) {
	master := []byte("bench-master-secret")
	peers := []wire.NodeID{1, 2}
	r1 := NewRegistryFromMaster(master, 1, peers)
	r2 := NewRegistryFromMaster(master, 2, peers)

	b.Run("envelope", func(b *testing.B) {
		env := benchEnvs(1)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r1.Sign(&env); err != nil {
				b.Fatal(err)
			}
			if err := r2.Verify(&env); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/envelope")
	})

	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			sf := wire.Superframe{From: 1, To: 2, Envs: benchEnvs(k)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc := wire.GetEncoder(sf.EncodedSize())
				sf.SignedBytesTo(enc)
				var sum [KeySize]byte
				if err := r1.SignBatchBytes(sf.To, enc.Buffer(), &sum); err != nil {
					b.Fatal(err)
				}
				if err := r2.VerifyBatchBytes(sf.From, enc.Buffer(), sum[:]); err != nil {
					b.Fatal(err)
				}
				wire.PutEncoder(enc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/envelope")
		})
	}
}
