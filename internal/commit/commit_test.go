package commit

import (
	"bytes"
	"testing"
	"testing/quick"

	"distauction/internal/wire"
)

var testSalt = []byte("0123456789abcdef")

func TestCommitVerify(t *testing.T) {
	c, op := NewWithSalt("coin", 3, testSalt, []byte("value"))
	if err := Verify("coin", 3, c, op); err != nil {
		t.Errorf("honest opening rejected: %v", err)
	}
}

func TestCommitBinding(t *testing.T) {
	c, op := NewWithSalt("coin", 3, testSalt, []byte("value"))
	lie := op
	lie.Value = []byte("other")
	if err := Verify("coin", 3, c, lie); err == nil {
		t.Error("different value must not open the commitment")
	}
	lie = op
	lie.Salt = append([]byte(nil), op.Salt...)
	lie.Salt[0] ^= 1
	if err := Verify("coin", 3, c, lie); err == nil {
		t.Error("different salt must not open the commitment")
	}
}

func TestCommitDomainSeparation(t *testing.T) {
	c, op := NewWithSalt("coin", 3, []byte("salt"), []byte("v"))
	if err := Verify("consensus", 3, c, op); err == nil {
		t.Error("commitment must be bound to its domain")
	}
	if err := Verify("coin", 4, c, op); err == nil {
		t.Error("commitment must be bound to its committer")
	}
}

func TestCommitsDiffer(t *testing.T) {
	c1, _ := NewWithSalt("d", 1, []byte("salt-1"), []byte("v"))
	c2, _ := NewWithSalt("d", 1, []byte("salt-2"), []byte("v"))
	if c1 == c2 {
		t.Error("distinct salts must yield distinct commitments (hiding)")
	}
}

func TestOpeningRoundTrip(t *testing.T) {
	f := func(salt, value []byte) bool {
		op := Opening{Salt: salt, Value: value}
		got, err := DecodeOpeningView(EncodeOpening(op))
		if err != nil {
			return false
		}
		return bytes.Equal(got.Salt, salt) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeOpeningGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = DecodeOpeningView(raw) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: commitments verify for arbitrary values and committers.
func TestQuickCommitRoundTrip(t *testing.T) {
	f := func(id uint32, value []byte) bool {
		c, op := NewWithSalt("q", wire.NodeID(id), testSalt, value)
		return Verify("q", wire.NodeID(id), c, op) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
