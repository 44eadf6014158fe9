// Package commit implements the hash commitment scheme of the commit → echo
// → reveal exchange (coin.Exchange), which both the common coin and the
// rational consensus protocol run (§4.2 of the paper, after Abraham, Dolev
// and Halpern).
//
// A commitment binds the committer to a value before other parties reveal
// theirs. The scheme is SHA-256 over (domain ‖ committer ‖ salt ‖ value),
// with a random salt for hiding. Binding rests on collision resistance;
// hiding rests on the salt's entropy.
package commit

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"

	"distauction/internal/wire"
)

// SaltSize is the commitment salt size in bytes.
const SaltSize = 16

// Size is the commitment digest size in bytes.
const Size = sha256.Size

// ErrMismatch reports that an opening does not match its commitment.
var ErrMismatch = errors.New("commit: opening does not match commitment")

// Commitment is a binding, hiding digest of a value.
type Commitment [Size]byte

// Opening reveals a committed value together with its salt.
type Opening struct {
	Salt  []byte
	Value []byte
}

// NewWithSalt commits node id to value within the given domain-separation
// tag. The caller draws salt (SaltSize random bytes: the commitment hides
// the value only as well as the salt is unpredictable); tests and deviation
// injectors pass fixed ones.
func NewWithSalt(domain string, id wire.NodeID, salt, value []byte) (Commitment, Opening) {
	op := Opening{Salt: salt, Value: value}
	return digest(domain, id, op), op
}

// Verify checks that op opens c for the given domain and committer.
func Verify(domain string, id wire.NodeID, c Commitment, op Opening) error {
	want := digest(domain, id, op)
	if subtle.ConstantTimeCompare(want[:], c[:]) != 1 {
		return ErrMismatch
	}
	return nil
}

func digest(domain string, id wire.NodeID, op Opening) Commitment {
	enc := wire.GetEncoder(len(domain) + len(op.Salt) + len(op.Value) + 16)
	enc.String(domain)
	enc.Uint32(uint32(id))
	enc.Bytes(op.Salt)
	enc.Bytes(op.Value)
	sum := sha256.Sum256(enc.Buffer())
	wire.PutEncoder(enc)
	return sum
}

// EncodeOpening serialises an opening.
func EncodeOpening(op Opening) []byte {
	enc := wire.NewEncoder(len(op.Salt) + len(op.Value) + 8)
	enc.Bytes(op.Salt)
	enc.Bytes(op.Value)
	return enc.Buffer()
}

// DecodeOpeningView parses an opening whose Salt and Value alias b (zero
// copy): they are valid while b is, and a caller that outlives b copies them.
func DecodeOpeningView(b []byte) (Opening, error) {
	d := wire.NewDecoder(b)
	var op Opening
	op.Salt = d.BytesView()
	op.Value = d.BytesView()
	if err := d.Finish(); err != nil {
		return Opening{}, fmt.Errorf("decode opening: %w", err)
	}
	return op, nil
}
