// Package trace is the round-pipeline observability layer: gated
// structured spans over every phase the marketplace runs (bid collection,
// bid-agreement gathers, task execution, coalescer flushes, admission
// decisions, 2PC settlement), per-phase latency histograms, and a
// flight recorder that keeps the last N rounds' events and dumps them
// with causal attribution when a round aborts or breaches the slow-round
// threshold.
//
// The whole package is gated behind one atomic flag. With tracing
// disabled the hooks compile down to a single atomic load (Begin returns
// the zero time, Span/Emit return immediately) and add zero allocations
// to the round hot path — the CI allocation budget holds with the hooks
// compiled in. With tracing enabled, events are written by value into
// fixed mutex-sharded rings and histograms, still allocation-free; only
// a flight-recorder dump (abort or slow round — rare by construction)
// copies events out.
package trace

import (
	"sync/atomic"
	"time"

	"distauction/internal/metrics"
	"distauction/internal/wire"
)

// Phase identifies which stage of the round pipeline a span covers.
type Phase uint8

const (
	// PhaseRound is the whole round: bid open to outcome delivery.
	PhaseRound Phase = iota
	// PhaseBidCollect is phase 0-1: broadcast own bid, gather the rest.
	PhaseBidCollect
	// PhaseAgreeCommit..PhaseAgreeVector are the gathers of bid
	// agreement's fallback: commitment exchange, echo, reveal, and the
	// stepVector full-vector exchange. An honest round records none of
	// them; its one agreement gather is PhaseAgreeDigest.
	PhaseAgreeCommit
	PhaseAgreeEcho
	PhaseAgreeReveal
	PhaseAgreeVector
	// PhaseTask is one taskgraph task on a persistent worker (Code holds
	// the task ID).
	PhaseTask
	// PhaseCoalesceShip is a coalescer batch leaving for one peer (Code
	// holds the envelope count; Peer the destination).
	PhaseCoalesceShip
	// PhaseAdmissionDrop marks a bid turned away by an admission gate
	// (instantaneous; Peer is the bidder).
	PhaseAdmissionDrop
	// PhaseSettleReserve/Commit/Release are the federation 2PC legs.
	PhaseSettleReserve
	PhaseSettleCommit
	PhaseSettleRelease
	// PhaseAbort marks a round going to ⊥ (instantaneous; Peer is the
	// culprit when attribution is known, Code the proto abort code).
	PhaseAbort
	// PhaseAgreeDigest is bid agreement's digest gather, the whole
	// agreement on its digest path. It comes last so the earlier phases keep
	// their codes.
	PhaseAgreeDigest

	// NumPhases bounds per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"round", "bid-collect",
	"agree-commit", "agree-echo", "agree-reveal", "agree-vector",
	"task", "coalesce-ship", "admission-drop",
	"settle-reserve", "settle-commit", "settle-release",
	"abort", "agree-digest",
}

// String returns the phase's stable wire/metric name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Event is one recorded span or point event. Events are stored by value
// in fixed rings — no pointers, no allocation.
type Event struct {
	Seq   uint64        // global order
	TS    int64         // wall clock, unix nanoseconds, at span end
	Dur   time.Duration // 0 for point events
	Round uint64
	Lane  uint32
	Node  wire.NodeID // observing node
	Peer  wire.NodeID // counterparty (culprit, destination, bidder…)
	Phase Phase
	Code  int32 // phase-specific detail (task id, abort code, batch size)
}

// NoPeer marks an event with no counterparty.
const NoPeer = wire.Broadcast

var (
	enabled   atomic.Bool
	seq       atomic.Uint64
	slowRound atomic.Int64 // nanoseconds; 0 disables the slow-round dump
)

// Enabled reports whether tracing is on. This is the only cost the
// disabled fast path pays.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns tracing on or off at runtime.
func SetEnabled(on bool) { enabled.Store(on) }

// SetSlowRound sets the round-duration threshold above which a completed
// round triggers a flight-recorder dump. Zero disables slow-round dumps.
func SetSlowRound(d time.Duration) { slowRound.Store(int64(d)) }

// Begin opens a span: it returns the current time when tracing is on and
// the zero time when off. Pass the result to Span, which treats the zero
// time as "tracing was off, do nothing" — so a hook is two lines and
// costs one atomic load when disabled.
func Begin() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Span closes a span opened by Begin and records it. A zero start (the
// disabled path) is a no-op.
func Span(start time.Time, ph Phase, round uint64, lane uint32, node, peer wire.NodeID, code int32) {
	if start.IsZero() {
		return
	}
	now := time.Now()
	d := now.Sub(start)
	phaseHist[ph].RecordDuration(d)
	record(Event{
		Seq: seq.Add(1), TS: now.UnixNano(), Dur: d,
		Round: round, Lane: lane, Node: node, Peer: peer, Phase: ph, Code: code,
	})
}

// Emit records a point event (no duration). No-op when tracing is off.
func Emit(ph Phase, round uint64, lane uint32, node, peer wire.NodeID, code int32) {
	if !enabled.Load() {
		return
	}
	phaseHist[ph].Record(0)
	record(Event{
		Seq: seq.Add(1), TS: time.Now().UnixNano(),
		Round: round, Lane: lane, Node: node, Peer: peer, Phase: ph, Code: code,
	})
}

// RoundDone closes a round's span and, when the round aborted or ran
// slower than the SetSlowRound threshold, captures a flight-recorder
// dump attributing the outcome. No-op when tracing is off.
func RoundDone(round uint64, lane uint32, node wire.NodeID, dur time.Duration, aborted bool, code int32) {
	if !enabled.Load() {
		return
	}
	phaseHist[PhaseRound].RecordDuration(dur)
	record(Event{
		Seq: seq.Add(1), TS: time.Now().UnixNano(), Dur: dur,
		Round: round, Lane: lane, Node: node, Peer: NoPeer, Phase: PhaseRound, Code: code,
	})
	slow := false
	if th := slowRound.Load(); th > 0 && int64(dur) > th {
		slow = true
	}
	if aborted || slow {
		dump(round, lane, node, dur, aborted, slow, code)
	}
}

// per-phase duration histograms, recorded only while tracing is on.
var phaseHist [NumPhases]metrics.Histogram

// PhaseDurations snapshots the per-phase histograms (nanosecond values;
// point events record as 0).
func PhaseDurations() [NumPhases]metrics.HistogramSnapshot {
	var out [NumPhases]metrics.HistogramSnapshot
	for i := range phaseHist {
		out[i] = phaseHist[i].Snapshot()
	}
	return out
}
