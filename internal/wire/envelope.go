package wire

import (
	"errors"
	"fmt"
)

// NodeID identifies a participant. Providers use small dense IDs assigned at
// configuration time; bidders use IDs in a disjoint range chosen by the
// deployment.
type NodeID uint32

// Broadcast is the reserved destination meaning "all providers".
const Broadcast NodeID = 0xFFFFFFFF

// BlockID identifies a protocol building block (§4 of the paper). It is part
// of the message tag so that concurrent block instances never confuse their
// traffic.
type BlockID uint8

// Block identifiers. The values are wire-visible; do not renumber.
const (
	BlockInvalid     BlockID = 0
	BlockBidSubmit   BlockID = 1 // bidder -> provider bid submission
	BlockBidAgree    BlockID = 2 // rational consensus over bid streams
	BlockValidate    BlockID = 3 // allocator input validation
	BlockCoin        BlockID = 4 // common coin
	BlockTransfer    BlockID = 5 // data transfer between task groups
	BlockTask        BlockID = 6 // task result exchange within a group
	BlockResult      BlockID = 7 // provider -> bidder outcome delivery
	BlockControl     BlockID = 8 // round control (start/abort)
	BlockLink        BlockID = 9 // link layer: seq-carried data, acks, heartbeats
	blockIDSentinel  BlockID = 10
	blockNameInvalid         = "invalid"
)

var blockNames = [blockIDSentinel]string{
	blockNameInvalid, "bid-submit", "bid-agree", "validate",
	"coin", "transfer", "task", "result", "control", "link",
}

// String returns a human-readable block name.
func (b BlockID) String() string {
	if b < blockIDSentinel {
		return blockNames[b]
	}
	return fmt.Sprintf("block(%d)", uint8(b))
}

// Tag routes a message to the block instance and step that expects it.
type Tag struct {
	Round    uint64  // auction round
	Block    BlockID // building block
	Instance uint32  // instance within the block (consensus index, task id…)
	Step     uint8   // phase within the instance (commit, reveal, echo…)
}

// String renders the tag for logs and errors.
func (t Tag) String() string {
	return fmt.Sprintf("r%d/%v/i%d/s%d", t.Round, t.Block, t.Instance, t.Step)
}

// Envelope is the unit of transmission: a tagged, authenticated payload.
type Envelope struct {
	From    NodeID
	To      NodeID // a node ID or Broadcast
	Tag     Tag
	Payload []byte
	MAC     []byte // HMAC over SignedBytes, empty on unauthenticated transports
	// LinkSeq is the resilience layer's per-peer sequence number; zero on
	// unsequenced traffic (broadcasts, or deployments without the link
	// layer). It rides the transport framing but is deliberately outside
	// the MAC-covered bytes: the link layer assigns it after signing, and a
	// retransmission must not need re-signing. Tampering with it on the
	// wire can only reorder or drop — the same power a faulty network
	// already has.
	LinkSeq uint64
	// LinkAck piggybacks the sender's cumulative ack for the reverse
	// direction of the same link (TCP-style), so steady bidirectional
	// traffic never needs standalone ack frames. Outside the MAC for the
	// same reason as LinkSeq; forging it can only drop resend state the
	// forger could drop anyway.
	LinkAck uint64
}

// SignedBytes returns the canonical byte string covered by the MAC:
// everything except the MAC itself.
func (e *Envelope) SignedBytes() []byte {
	enc := NewEncoder(24 + len(e.Payload))
	e.encodeCore(enc)
	return enc.Buffer()
}

// SignedBytesTo appends the canonical MAC-covered bytes to enc. The auth
// layer uses it with a pooled encoder so that per-message signing and
// verification do not allocate.
func (e *Envelope) SignedBytesTo(enc *Encoder) { e.encodeCore(enc) }

// EncodedSize returns a capacity hint covering the full encoding of e.
func (e *Envelope) EncodedSize() int { return 52 + len(e.Payload) + len(e.MAC) }

// EncodeTo appends the envelope's full encoding (including its MAC and
// link sequence) to enc. Transports use it with a pooled encoder: the
// frame bytes are written to the connection and the buffer is recycled
// without ever escaping.
func (e *Envelope) EncodeTo(enc *Encoder) {
	e.encodeCore(enc)
	enc.Bytes(e.MAC)
	enc.Uvarint(e.LinkSeq)
	enc.Uvarint(e.LinkAck)
}

func (e *Envelope) encodeCore(enc *Encoder) {
	enc.Uint32(uint32(e.From))
	enc.Uint32(uint32(e.To))
	enc.Uvarint(e.Tag.Round)
	enc.Uint8(uint8(e.Tag.Block))
	enc.Uint32(e.Tag.Instance)
	enc.Uint8(e.Tag.Step)
	enc.Bytes(e.Payload)
}

// Encode serialises the envelope including its MAC and link sequence.
func (e *Envelope) Encode() []byte {
	enc := NewEncoder(e.EncodedSize())
	e.EncodeTo(enc)
	return enc.Buffer()
}

// DecodeEnvelope parses an envelope, returning an error for malformed input.
// The payload and MAC are copied out of b; use DecodeEnvelopeView when the
// caller owns b and can hand it over.
func DecodeEnvelope(b []byte) (Envelope, error) {
	return decodeEnvelope(b, false)
}

// DecodeEnvelopeView parses an envelope whose Payload and MAC alias b
// directly (zero copy). The caller must own b and must not modify or reuse
// it afterwards.
func DecodeEnvelopeView(b []byte) (Envelope, error) {
	return decodeEnvelope(b, true)
}

func decodeEnvelope(b []byte, view bool) (Envelope, error) {
	d := NewDecoder(b)
	var e Envelope
	e.From = NodeID(d.Uint32())
	e.To = NodeID(d.Uint32())
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
	if err := d.Finish(); err != nil {
		return Envelope{}, fmt.Errorf("decode envelope: %w", err)
	}
	if e.Tag.Block == BlockInvalid || e.Tag.Block >= blockIDSentinel {
		return Envelope{}, fmt.Errorf("%w: block id %d", ErrCorrupt, e.Tag.Block)
	}
	return e, nil
}

// ErrFrameTooLarge reports a frame exceeding MaxFrameLen.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// MaxFrameLen bounds a single framed message on stream transports.
const MaxFrameLen = 32 << 20
