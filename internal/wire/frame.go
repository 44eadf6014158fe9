package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// WriteFrame writes a length-prefixed frame to w. The prefix is a 4-byte
// big-endian length. WriteFrame performs a single Write call so that
// concurrent writers interleave at frame granularity when w serialises
// writes (callers still normally hold a mutex per connection).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// WriteFrameTo writes a length-prefixed frame as two Write calls (header,
// then payload) without allocating. It is meant for buffered writers — the
// TCP transport batches frames into a bufio.Writer and flushes once per
// burst — where WriteFrame's single-Write copy would be a wasted allocation.
// Callers on unbuffered shared writers must either hold a lock or use
// WriteFrame to keep frames contiguous.
func WriteFrameTo(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("write frame body: %w", err)
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
	var hdr [4]byte
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
