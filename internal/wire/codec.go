// Package wire implements the binary wire format of the distributed
// auctioneer protocol.
//
// Every value that crosses the network — or is hashed into a commitment — is
// encoded with this package. The encoding is deterministic: the same value
// always produces the same bytes on every platform. That property is
// load-bearing: providers cross-validate redundant computations by comparing
// encoded results, and the common coin commits to encoded values.
//
// The format is a compact tag-free concatenation: the reader must know the
// schema (every message type has a hand-written Marshal/Unmarshal pair).
// Integers use unsigned varint or zigzag varint; byte strings are
// length-prefixed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"distauction/internal/fixed"
)

// MaxBytesLen bounds a single length-prefixed byte string (16 MiB). Protocol
// messages are far smaller; the bound exists so a corrupt or hostile length
// prefix cannot trigger a huge allocation.
const MaxBytesLen = 16 << 20

// ErrTruncated reports that a decoder ran out of input.
var ErrTruncated = errors.New("wire: truncated input")

// ErrCorrupt reports structurally invalid input (bad varint, oversized
// length prefix, invalid bool byte).
var ErrCorrupt = errors.New("wire: corrupt input")

// ErrTrailing reports that input had unconsumed bytes after a complete decode.
var ErrTrailing = errors.New("wire: trailing bytes")

// Encoder appends values to an internal buffer. The zero value is ready to
// use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated for n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// encoderPool recycles Encoder buffers across the hot send/sign paths. The
// pooled buffers grow to the working-set message size and are then reused
// without further allocation. Without it, BenchmarkAuthSignVerify reads
// 1598 ns/op and 5 allocs/op, not 1100 and 1, and BenchmarkEnvelopeEncodeTo
// (the TCP send path's encode) 494.7 ns/op and 1 alloc/op, not 78.8 and 0
// (EXPERIMENTS.md).
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled encoder with at least n bytes of capacity.
// Callers must hand it back with PutEncoder once the encoded bytes are no
// longer referenced — the buffer is recycled, so the bytes must not be
// retained past PutEncoder (copy them, or skip PutEncoder and let the
// encoder escape to the GC).
func GetEncoder(n int) *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	if cap(e.buf) < n {
		e.buf = make([]byte, 0, n)
	}
	return e
}

// PutEncoder recycles a pooled encoder. The encoder and its buffer must not
// be used after the call.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > MaxBytesLen {
		return // don't pin pathological buffers in the pool
	}
	encoderPool.Put(e)
}

// Buffer returns the encoded bytes. The buffer is owned by the encoder;
// callers that retain it must not encode further values.
func (e *Encoder) Buffer() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Uint32 appends a fixed-width big-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a fixed-width big-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Fixed appends a fixed-point value as a zigzag varint of micro-units.
func (e *Encoder) Fixed(f fixed.Fixed) { e.Varint(int64(f)) }

// FixedSlice appends a length-prefixed slice of fixed-point values, as one
// append loop over a local buffer (the encoder's is written back once).
func (e *Encoder) FixedSlice(fs []fixed.Fixed) {
	buf := binary.AppendUvarint(e.buf, uint64(len(fs)))
	for _, f := range fs {
		buf = binary.AppendVarint(buf, int64(f))
	}
	e.buf = buf
}

// Decoder consumes values from a buffer. Errors are sticky: after the first
// failure every accessor returns the zero value and Err reports the cause.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns the sticky error if any, or ErrTrailing if unconsumed bytes
// remain. Every Unmarshal should end with Finish.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint consumes an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.fail(ErrTruncated)
	default:
		d.fail(ErrCorrupt)
	}
	return 0
}

// Varint consumes a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.fail(ErrTruncated)
	default:
		d.fail(ErrCorrupt)
	}
	return 0
}

// Uint8 consumes one byte.
func (d *Decoder) Uint8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uint32 consumes a fixed-width big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 consumes a fixed-width big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Bool consumes one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.Uint8()
	switch v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(ErrCorrupt)
		return false
	}
}

// Bytes consumes a length-prefixed byte string. The returned slice is a copy,
// so callers may retain it after the underlying buffer is reused.
func (d *Decoder) Bytes() []byte {
	v := d.BytesView()
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// BytesView consumes a length-prefixed byte string and returns a view into
// the decoder's buffer without copying. The view aliases the input: it is
// only valid while the underlying buffer is, and callers that retain bytes
// past the buffer's lifetime must use Bytes instead. A present-but-empty
// byte string decodes to a non-nil empty slice.
func (d *Decoder) BytesView() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		d.fail(ErrCorrupt)
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail(ErrTruncated)
		return nil
	}
	v := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return v
}

// String consumes a length-prefixed string. The result is built directly
// from the input (one copy, no intermediate byte slice).
func (d *Decoder) String() string {
	v := d.BytesView()
	if d.err != nil {
		return ""
	}
	return string(v)
}

// StringView consumes a length-prefixed string without copying: the returned
// string aliases the decoder's buffer via unsafe.String. It is only valid
// while the underlying buffer is alive and unmodified; callers that retain
// the string (or whose buffer is recycled) must use String instead.
func (d *Decoder) StringView() string {
	v := d.BytesView()
	if len(v) == 0 {
		return ""
	}
	return unsafe.String(&v[0], len(v))
}

// Fixed consumes a fixed-point value.
func (d *Decoder) Fixed() fixed.Fixed { return fixed.Fixed(d.Varint()) }

// FixedSlice consumes a length-prefixed slice of fixed-point values.
func (d *Decoder) FixedSlice() []fixed.Fixed {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	// Each element takes at least one byte; reject absurd counts before
	// allocating.
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return nil
	}
	out := make([]fixed.Fixed, n)
	d.fixeds(out)
	if d.err != nil {
		return nil
	}
	return out
}

// FixedSliceInto consumes a length-prefixed slice of fixed-point values into
// dst, the caller's storage, and returns how many it held (0 on error). A
// slice longer than dst is refused as corrupt before any element is read.
func (d *Decoder) FixedSliceInto(dst []fixed.Fixed) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(dst)) {
		d.fail(ErrCorrupt)
		return 0
	}
	d.fixeds(dst[:n])
	if d.err != nil {
		return 0
	}
	return int(n)
}

// fixeds fills dst with len(dst) zig-zag varints: the bulk kernel behind
// FixedSlice and FixedSliceInto. A dense outcome is thousands of values per
// message, most of them the single byte 0x00, so the loop runs over a local
// buffer and offset, takes a one-byte value without an inner iteration, and
// settles the offset and the error once per slice instead of once per
// element. It accepts exactly what binary.Varint accepts (over-long
// encodings included) with the same error class, and on failure leaves the
// offset at the element that failed, as the per-element accessors do.
func (d *Decoder) fixeds(dst []fixed.Fixed) {
	buf, p := d.buf, d.off
	var err error
decode:
	for i := range dst {
		if p >= len(buf) {
			err = ErrTruncated
			break
		}
		ux := uint64(buf[p])
		p++
		if ux >= 0x80 {
			start := p - 1
			ux &= 0x7f
			for s := uint(7); ; s += 7 {
				if p >= len(buf) {
					p, err = start, ErrTruncated
					break decode
				}
				b := buf[p]
				p++
				if b < 0x80 {
					if s == 63 && b > 1 {
						p, err = start, ErrCorrupt // more than 64 bits
						break decode
					}
					ux |= uint64(b) << s
					break
				}
				if s == 63 {
					// A tenth continuation byte: an overflow if an
					// eleventh byte follows, else a short read.
					err = ErrTruncated
					if p < len(buf) {
						err = ErrCorrupt
					}
					p = start
					break decode
				}
				ux |= uint64(b&0x7f) << s
			}
		}
		dst[i] = fixed.Fixed(int64(ux>>1) ^ -int64(ux&1))
	}
	d.off = p
	if err != nil {
		d.fail(err)
	}
}

// SliceLen consumes and validates a slice length against the remaining input,
// assuming each element occupies at least minElemSize bytes.
func (d *Decoder) SliceLen(minElemSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if n > uint64(math.MaxInt32) || n*uint64(minElemSize) > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return 0
	}
	return int(n)
}
