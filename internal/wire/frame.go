package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FramePrefixLen is the size of a frame's length prefix: a 4-byte
// big-endian body length.
const FramePrefixLen = 4

// SealFrame fills the length prefix of a frame built in place: frame's
// first FramePrefixLen bytes are reserved for it and the body follows. A
// frame so built goes out in one Write, with no copy.
func SealFrame(frame []byte) error {
	n := len(frame) - FramePrefixLen
	if n > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// WriteFrame writes payload to w as one length-prefixed frame, in a single
// Write call, so that concurrent writers interleave at frame granularity
// when w serialises writes.
func WriteFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, FramePrefixLen+len(payload))
	copy(buf[FramePrefixLen:], payload)
	if err := SealFrame(buf); err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// frameChunk bounds what ReadFrame allocates for a frame body before any of
// it arrives: the length prefix comes before anything a receiver can
// authenticate, so a prefix alone must not pin MaxFrameLen bytes. It is the
// transport coalescer's cap on a superframe's payload bytes, so a coalesced
// frame below that cap is read into one exact allocation.
const frameChunk = 128 << 10

// errBodyEnded is ReadFrame's error for a stream that ends inside a frame
// body, made once: a truncated frame costs its reader nothing beyond the
// body bytes it allocated.
var errBodyEnded = fmt.Errorf("read frame body: %w", io.ErrUnexpectedEOF)

// ReadFrame reads one length-prefixed frame from r. It returns io.EOF when
// the stream ends cleanly before a frame starts, and an error wrapping
// io.ErrUnexpectedEOF when it ends mid-frame.
//
// The body is read into a buffer of at most frameChunk bytes that doubles,
// up to the prefix's length, only once it is full. A body of at most
// frameChunk bytes is one exact allocation, and what a sender makes the
// reader allocate grows only with the bytes it sends: at most frameChunk,
// or four times the body bytes received.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [FramePrefixLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, min(int(n), frameChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, payload[got:])
		got += k
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return nil, errBodyEnded
		case err != nil:
			return nil, fmt.Errorf("read frame body: %w", err)
		case got == int(n):
			return payload, nil
		}
		grown := make([]byte, min(int(n), 2*len(payload)))
		copy(grown, payload)
		payload = grown
	}
}
