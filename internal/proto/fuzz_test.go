package proto

import (
	"errors"
	"testing"

	"distauction/internal/transport"
	"distauction/internal/wire"
)

// FuzzAbortControl feeds arbitrary payloads to the abort control decoder,
// the one decoder of peer input every round trusts: it never panics, the
// round always ends aborted with a code below NumAbortCodes, and a valid
// encoding round-trips reason, code and culprit.
func FuzzAbortControl(f *testing.F) {
	f.Add(encodeAbort(&AbortError{Reason: "equivocation by 3", Code: AbortEquivocation, Culprit: 3}),
		"r1/coin/i0/s1: senders disagree", uint8(AbortProtocol), uint32(wire.Broadcast))
	f.Add([]byte{}, "", uint8(0), uint32(0))
	f.Add([]byte{0x05, 'a', 'b'}, "x", uint8(NumAbortCodes), uint32(2))
	f.Add([]byte{0x01, 'a', 0xff, 0, 0, 0, 7}, "closed", uint8(AbortClosed), uint32(7))

	hub := transport.NewHub(transport.LatencyModel{}, 1)
	defer hub.Close()
	conn, err := hub.Attach(1)
	if err != nil {
		f.Fatal(err)
	}
	p := NewPeer(conn, []wire.NodeID{1, 2})
	defer p.Close()
	var round uint64
	// abortWith delivers payload as provider 2's abort of a fresh round and
	// returns what the round latched.
	abortWith := func(t *testing.T, payload []byte) *AbortError {
		round++
		p.handle(wire.Envelope{From: 2, To: 1, Payload: payload,
			Tag: wire.Tag{Round: round, Block: wire.BlockControl, Step: StepAbort}})
		var ae *AbortError
		if !errors.As(p.AbortErr(round), &ae) {
			t.Fatalf("payload %x: round %d did not abort", payload, round)
		}
		p.EndRound(round)
		if ae.Round != round || ae.From != 2 {
			t.Fatalf("payload %x: abort of round %d from %d, want round %d from 2", payload, ae.Round, ae.From, round)
		}
		if ae.Code >= NumAbortCodes {
			t.Fatalf("payload %x: code %d out of range", payload, ae.Code)
		}
		return ae
	}

	f.Fuzz(func(t *testing.T, payload []byte, reason string, code uint8, culprit uint32) {
		abortWith(t, payload)
		want := &AbortError{Reason: reason, Code: AbortCode(code % uint8(NumAbortCodes)), Culprit: wire.NodeID(culprit)}
		got := abortWith(t, encodeAbort(want))
		if got.Reason != want.Reason || got.Code != want.Code || got.Culprit != want.Culprit {
			t.Fatalf("round trip: got (%q, %v, %d), want (%q, %v, %d)",
				got.Reason, got.Code, got.Culprit, want.Reason, want.Code, want.Culprit)
		}
	})
}
