package proto

import (
	"context"
	"errors"

	"distauction/internal/transport"
)

// AbortCode classifies why a round went to ⊥. The marketplace's counters,
// the trace flight recorder, the Prometheus export and audit all key on
// these codes — one taxonomy for every layer. A code is decided once, where
// ⊥ latches: Peer.Fail types it from its cause, the router marks
// equivocation. It then travels on the abort control message next to the
// human-readable reason, so remote peers count the kind the aborter
// decided; nothing re-reads the reason.
type AbortCode uint8

const (
	// AbortUnknown is an abort whose cause has no type the taxonomy knows.
	AbortUnknown AbortCode = iota
	// AbortTimeout is a deadline expiry: a peer stayed silent past the
	// receive timeout (the paper's fair-schedule escape hatch).
	AbortTimeout
	// AbortEquivocation is two different payloads from one sender under
	// one tag — the ⊥-inducing deviation of §3.2.
	AbortEquivocation
	// AbortClosed is a shutdown abort: the peer, session or transport
	// closed (or the round's context was cancelled) while the round was in
	// flight.
	AbortClosed
	// AbortProtocol is a malformed or mis-sequenced message: decode
	// failures, mis-opened commitments, vector mismatches, broken graph
	// invariants.
	AbortProtocol
	// AbortDisconnect is a crashed peer: the transport's failure detector
	// declared it dead (heartbeat silence past the dead threshold) before
	// the round timed out. Distinct from AbortTimeout (silent but alive)
	// and from the deviation codes — a crash is not a deviation.
	AbortDisconnect

	// NumAbortCodes bounds per-code counter arrays.
	NumAbortCodes
)

var abortCodeNames = [NumAbortCodes]string{
	"unknown", "timeout", "equivocation", "closed", "protocol", "disconnect",
}

// String returns the code's stable metric label.
func (c AbortCode) String() string {
	if c < NumAbortCodes {
		return abortCodeNames[c]
	}
	return "unknown"
}

// AbortCodeOf types a failure by the error's type alone; no text is read.
// An *AbortError carries its code; a *DisconnectError is a disconnect; a
// deadline is a timeout; a cancelled context, a closed peer, session or
// transport and a retired round are closed; anything else is unknown — a
// site that knows more wraps its verdict in an *AbortError.
func AbortCodeOf(err error) AbortCode {
	if err == nil {
		return AbortUnknown
	}
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Code
	}
	// Before the deadline case: a DisconnectError Is-matches the deadline
	// sentinel (so timeout-tolerant callers degrade gracefully) but is a
	// crash, not a timeout.
	var de *DisconnectError
	if errors.As(err, &de) {
		return AbortDisconnect
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return AbortTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, ErrPeerClosed),
		errors.Is(err, ErrRoundEnded), errors.Is(err, transport.ErrClosed):
		return AbortClosed
	}
	return AbortUnknown
}
