package audit

import (
	"errors"
	"testing"
	"time"

	"distauction/internal/auth"
	"distauction/internal/proto"
	"distauction/internal/wire"
)

func fixedClock() func() time.Time {
	t0 := time.Unix(5000, 0)
	return func() time.Time { return t0 }
}

func TestCleanRounds(t *testing.T) {
	l := New(fixedClock())
	l.RecordOutcome(1)
	l.RecordOutcome(2)
	l.RecordOutcome(2) // duplicate ignored
	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	for _, r := range recs {
		if r.Verdict != VerdictClean {
			t.Errorf("round %d verdict %v", r.Round, r.Verdict)
		}
	}
	if got := l.Exclusions(1); len(got) != 0 {
		t.Errorf("clean log excludes %v", got)
	}
}

func TestAttributedAborts(t *testing.T) {
	l := New(fixedClock())
	// The runtime's equivocation verdict: two payloads from 3 under one tag.
	l.RecordAbort(1, &proto.AbortError{Round: 1, From: 2, Reason: "equivocation by 3 on r1/task/i1/s1",
		Code: proto.AbortEquivocation, Culprit: 3})
	// A block's verdict on provider 3's own message.
	l.RecordAbort(2, &proto.AbortError{Round: 2, From: 1, Reason: "r2/coin/i0/s3: provider 3 mis-opened its commitment",
		Code: proto.AbortProtocol, Culprit: 3})
	if got := l.Strikes(3); got != 2 {
		t.Errorf("node 3 strikes = %d, want 2", got)
	}
	if got := l.Strikes(2); got != 0 {
		t.Errorf("reporter charged: %d strikes", got)
	}
	if ex := l.Exclusions(2); len(ex) != 1 || ex[0] != 3 {
		t.Errorf("exclusions = %v, want [3]", ex)
	}
	if ex := l.Exclusions(3); len(ex) != 0 {
		t.Errorf("budget 3 should not exclude yet: %v", ex)
	}
}

// Only a deviation code with a named culprit charges anyone: a mismatch
// between views names nobody, a crash is not a deviation, and timeouts
// never charge — asynchrony alone must not cost membership. The prose never
// matters.
func TestUnattributedAborts(t *testing.T) {
	l := New(fixedClock())
	l.RecordAbort(1, &proto.AbortError{Round: 1, From: 2, Reason: "coin: gather commits: context deadline exceeded",
		Code: proto.AbortTimeout, Culprit: wire.Broadcast})
	l.RecordAbort(2, errors.New("some opaque failure"))
	l.RecordAbort(3, &proto.AbortError{Round: 3, From: 2, Reason: "r3/bid-agree/i0/s2: senders disagree (provider 1)",
		Code: proto.AbortProtocol, Culprit: wire.Broadcast})
	l.RecordAbort(4, &proto.AbortError{Round: 4, From: 1, Reason: "proto: peer 3 disconnected (missed heartbeats)",
		Code: proto.AbortDisconnect, Culprit: 3})
	for _, r := range l.Records() {
		if r.Verdict != VerdictUnattributed {
			t.Errorf("round %d: verdict %v, want unattributed", r.Round, r.Verdict)
		}
	}
	if ex := l.Exclusions(1); len(ex) != 0 {
		t.Errorf("unattributed aborts must not cost membership: %v", ex)
	}
}

func TestDuplicateRoundIgnored(t *testing.T) {
	l := New(fixedClock())
	ae := &proto.AbortError{Round: 1, Reason: "equivocation by 5 on r1/coin/i0/s1", Code: proto.AbortEquivocation, Culprit: 5}
	l.RecordAbort(1, ae)
	l.RecordAbort(1, ae)
	if got := l.Strikes(5); got != 1 {
		t.Errorf("duplicate round double-charged: %d strikes", got)
	}
}

func TestRecordEvidence(t *testing.T) {
	master := []byte("audit-test")
	ids := []wire.NodeID{1, 2}
	r1 := auth.NewRegistryFromMaster(master, 1, ids)
	r2 := auth.NewRegistryFromMaster(master, 2, ids)

	tag := wire.Tag{Round: 7, Block: wire.BlockTransfer, Instance: 1, Step: 1}
	a := wire.Envelope{From: 1, To: 2, Tag: tag, Payload: []byte("x")}
	b := wire.Envelope{From: 1, To: 2, Tag: tag, Payload: []byte("y")}
	if err := r1.Sign(&a); err != nil {
		t.Fatal(err)
	}
	if err := r1.Sign(&b); err != nil {
		t.Fatal(err)
	}

	l := New(fixedClock())
	if err := l.RecordEvidence(r2, auth.Evidence{A: a, B: b}); err != nil {
		t.Fatalf("valid evidence rejected: %v", err)
	}
	if got := l.Strikes(1); got != 1 {
		t.Errorf("strikes = %d", got)
	}

	// Forged evidence must be rejected and charge nobody.
	forged := b
	forged.MAC = append([]byte(nil), b.MAC...)
	forged.MAC[0] ^= 1
	if err := l.RecordEvidence(r2, auth.Evidence{A: a, B: forged}); err == nil {
		t.Error("forged evidence accepted")
	}
	if got := l.Strikes(1); got != 1 {
		t.Errorf("forged evidence changed strikes: %d", got)
	}
}
