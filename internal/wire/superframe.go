package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Superframe batching.
//
// A superframe carries a batch of envelopes that share one sender and one
// destination, so transports can amortise the per-message fixed costs —
// one wire frame, one MAC, one latency-model event, one dispatch hop — over
// the whole batch. Batching is strictly transport-level: every envelope
// inside a superframe is byte-for-byte the envelope it would be on its own
// (same tag, same payload), so duplicate absorption, equivocation
// detection and ⊥ attribution are unchanged. The shared From/To are
// encoded once and stamped back onto every envelope at decode.
//
// Transferable evidence (§3.2) moves to frame granularity: a batched
// envelope carries no individual MAC, but the batch MAC pins the ENTIRE
// frame — conflicting payloads included — to its sender, so a retained
// superframe is itself transferable proof of what the peer said under a
// tag. The format keeps a per-envelope MAC field, covered by the batch
// MAC, but the TCP transport leaves it empty: an auth.Evidence object made
// of individually signed envelopes never travels on the wire.
//
// The stream transport sends every frame as a superframe, a lone envelope
// included, so a frame has one kind, one MAC and one decode path. The
// leading marker, SuperframeMarker where an envelope's From would be, is
// what makes a plain envelope frame fail DecodeSuperframe: Broadcast
// (0xFFFFFFFF) is never a valid sender — transports enforce From == Self on
// every send — so the marker cannot collide with a real envelope.

// SuperframeMarker is the leading uint32 that identifies a superframe. It
// deliberately equals Broadcast: an envelope frame starts with its From
// field, and no node may send as Broadcast.
const SuperframeMarker uint32 = 0xFFFFFFFF

// MaxSuperframeEnvs bounds the envelope count of one superframe. Coalescers
// flush well below it; the decode-side bound exists so a hostile count
// cannot trigger a huge allocation.
const MaxSuperframeEnvs = 4096

// ErrBadSuperframe reports a structurally invalid superframe.
var ErrBadSuperframe = errors.New("wire: bad superframe")

// Superframe is a batch of envelopes from one sender to one destination,
// authenticated as a unit: MAC is a single HMAC over the bytes
// SignedBytesTo writes (the whole batch, per-envelope MAC fields included),
// computed by auth.Registry.SignBatchBytes. A failed batch MAC attributes
// to the frame's sender, whose pairwise key it is.
type Superframe struct {
	From NodeID
	To   NodeID
	Envs []Envelope // all share From/To; Payload/MAC may alias a decode buffer
	MAC  []byte     // batch MAC over SignedBytes, empty on unauthenticated transports
}

// EncodedSize returns a capacity hint covering the full encoding of sf.
func (sf *Superframe) EncodedSize() int {
	n := 16 + len(sf.MAC)
	for i := range sf.Envs {
		n += 36 + len(sf.Envs[i].Payload) + len(sf.Envs[i].MAC)
	}
	return n
}

// SignedBytesTo appends the canonical batch-MAC-covered bytes to enc:
// everything except the batch MAC itself, per-envelope MACs included.
func (sf *Superframe) SignedBytesTo(enc *Encoder) {
	enc.Uint32(SuperframeMarker)
	enc.Uint32(uint32(sf.From))
	enc.Uint32(uint32(sf.To))
	enc.Uvarint(uint64(len(sf.Envs)))
	for i := range sf.Envs {
		e := &sf.Envs[i]
		enc.Uvarint(e.Tag.Round)
		enc.Uint8(uint8(e.Tag.Block))
		enc.Uint32(e.Tag.Instance)
		enc.Uint8(e.Tag.Step)
		enc.Bytes(e.Payload)
		enc.Bytes(e.MAC)
		enc.Uvarint(e.LinkSeq)
		enc.Uvarint(e.LinkAck)
	}
}

// EncodeTo appends the superframe's full encoding (including the batch MAC)
// to enc.
func (sf *Superframe) EncodeTo(enc *Encoder) {
	sf.SignedBytesTo(enc)
	enc.Bytes(sf.MAC)
}

// Encode serialises the superframe including its batch MAC.
func (sf *Superframe) Encode() []byte {
	enc := NewEncoder(sf.EncodedSize())
	sf.EncodeTo(enc)
	return enc.Buffer()
}

// SuperframeSignedView returns the prefix of an encoded superframe covered
// by the batch MAC — everything before the trailing MAC field — so
// receivers can verify directly over the received bytes with no
// re-encoding. macLen must be the decoded batch MAC's length. The second
// result is false when the trailing field is not minimally encoded (Encode
// always is), in which case the frame cannot match what any honest sender
// signed.
func SuperframeSignedView(frame []byte, macLen int) ([]byte, bool) {
	// Trailing field: uvarint(macLen) followed by macLen bytes.
	prefix := 1
	for v := uint64(macLen); v >= 0x80; v >>= 7 {
		prefix++
	}
	cut := len(frame) - prefix - macLen
	if cut < 0 {
		return nil, false
	}
	var lenBuf [10]byte
	n := binary.PutUvarint(lenBuf[:], uint64(macLen))
	if n != prefix || !bytes.Equal(frame[cut:cut+prefix], lenBuf[:n]) {
		return nil, false
	}
	return frame[:cut], true
}

// DecodeSuperframe parses a superframe, copying payloads and MACs out of b.
func DecodeSuperframe(b []byte) (Superframe, error) {
	return decodeSuperframe(b, false)
}

// DecodeSuperframeView parses a superframe whose payloads and MACs alias b
// directly (zero copy). The caller must own b and must not modify or reuse
// it afterwards — the stream transports decode each freshly-read frame this
// way and hand the batch over to the dispatcher.
func DecodeSuperframeView(b []byte) (Superframe, error) {
	return decodeSuperframe(b, true)
}

func decodeSuperframe(b []byte, view bool) (Superframe, error) {
	d := NewDecoder(b)
	var sf Superframe
	if d.Uint32() != SuperframeMarker {
		return Superframe{}, fmt.Errorf("%w: missing marker", ErrBadSuperframe)
	}
	sf.From = NodeID(d.Uint32())
	sf.To = NodeID(d.Uint32())
	// Every envelope entry takes at least 8 bytes (tag + two length prefixes),
	// so the count is validated against the remaining input before allocating.
	n := d.SliceLen(8)
	if d.Err() == nil && (n < 1 || n > MaxSuperframeEnvs) {
		return Superframe{}, fmt.Errorf("%w: %d envelopes", ErrBadSuperframe, n)
	}
	if sf.From == NodeID(SuperframeMarker) {
		return Superframe{}, fmt.Errorf("%w: sender is the broadcast ID", ErrBadSuperframe)
	}
	sf.Envs = make([]Envelope, n)
	for i := range sf.Envs {
		e := &sf.Envs[i]
		e.From = sf.From
		e.To = sf.To
		e.Tag.Round = d.Uvarint()
		e.Tag.Block = BlockID(d.Uint8())
		e.Tag.Instance = d.Uint32()
		e.Tag.Step = d.Uint8()
		if view {
			e.Payload = d.BytesView()
			e.MAC = d.BytesView()
		} else {
			e.Payload = d.Bytes()
			e.MAC = d.Bytes()
		}
		e.LinkSeq = d.Uvarint()
		e.LinkAck = d.Uvarint()
		if d.Err() == nil && (e.Tag.Block == BlockInvalid || e.Tag.Block >= blockIDSentinel) {
			return Superframe{}, fmt.Errorf("%w: block id %d", ErrCorrupt, e.Tag.Block)
		}
	}
	if view {
		sf.MAC = d.BytesView()
	} else {
		sf.MAC = d.Bytes()
	}
	if err := d.Finish(); err != nil {
		return Superframe{}, fmt.Errorf("decode superframe: %w", err)
	}
	return sf, nil
}
