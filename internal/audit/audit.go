// Package audit provides deviation accountability across auction rounds.
//
// The framework guarantees that deviations can only force ⊥ — but a ⊥ round
// still wastes everyone's time, and a provider that keeps forcing ⊥ should
// eventually be expelled by the community (the out-of-protocol punishment
// the paper's solution-preference assumption ultimately rests on). This
// package is that bookkeeping: it ingests round results and transferable
// equivocation evidence (auth.Evidence), maintains per-node strike counts,
// and recommends exclusion once a node exceeds a strike budget.
//
// Attribution is a field, not prose: an abort is charged to
// proto.AbortError.Culprit, and only when the code says the culprit deviated
// (AbortEquivocation: two payloads under one tag; AbortProtocol: its own
// message failed its commitment or shape) and the runtime named one. A
// mismatch between providers' views (an echo, a validation digest, a
// transfer) names nobody, since it shows that someone lied but not who; a
// crash (AbortDisconnect), a timeout and every other failure are recorded as
// unattributed — asynchrony alone must never cost an honest node its
// membership.
package audit

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"distauction/internal/auth"
	"distauction/internal/proto"
	"distauction/internal/wire"
)

// Verdict classifies one round for one node.
type Verdict uint8

// Verdicts.
const (
	// VerdictClean records a completed round.
	VerdictClean Verdict = iota
	// VerdictAccused records an attributed deviation (strike).
	VerdictAccused
	// VerdictUnattributed records a ⊥ round with no culprit evidence.
	VerdictUnattributed
)

// Record is one audit-log entry.
type Record struct {
	Round   uint64
	Node    wire.NodeID // zero for unattributed entries
	Verdict Verdict
	Reason  string
	At      time.Time
}

// Log accumulates records and strike counts. The zero value is not usable;
// call New.
type Log struct {
	clock func() time.Time

	mu      sync.Mutex
	records []Record
	strikes map[wire.NodeID]int
	rounds  map[uint64]bool // rounds already ingested
}

// New creates an audit log. A nil clock uses time.Now.
func New(clock func() time.Time) *Log {
	if clock == nil {
		clock = time.Now
	}
	return &Log{
		clock:   clock,
		strikes: make(map[wire.NodeID]int),
		rounds:  make(map[uint64]bool),
	}
}

// RecordOutcome ingests a completed (non-⊥) round.
func (l *Log) RecordOutcome(round uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rounds[round] {
		return
	}
	l.rounds[round] = true
	l.records = append(l.records, Record{
		Round: round, Verdict: VerdictClean, Reason: "completed", At: l.clock(),
	})
}

// RecordAbort ingests a ⊥ round. The culprit of an equivocation or
// protocol abort is charged; anything else is unattributed.
func (l *Log) RecordAbort(round uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rounds[round] {
		return
	}
	l.rounds[round] = true

	rec := Record{Round: round, Verdict: VerdictUnattributed, Reason: "unknown", At: l.clock()}
	var ae *proto.AbortError
	if errors.As(err, &ae) {
		rec.Reason = ae.Reason
		if (ae.Code == proto.AbortEquivocation || ae.Code == proto.AbortProtocol) && ae.Culprit != wire.Broadcast {
			rec.Node, rec.Verdict = ae.Culprit, VerdictAccused
			l.strikes[ae.Culprit]++
		}
	} else if err != nil {
		rec.Reason = err.Error()
	}
	l.records = append(l.records, rec)
}

// RecordEvidence ingests transferable equivocation evidence verified
// against the local registry. Invalid evidence is rejected (charging nodes
// on unverified accusations would itself be an attack vector).
func (l *Log) RecordEvidence(registry *auth.Registry, ev auth.Evidence) error {
	if err := auth.CheckEvidence(registry, ev); err != nil {
		return fmt.Errorf("audit: rejecting evidence: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.strikes[ev.A.From]++
	l.records = append(l.records, Record{
		Round: ev.A.Tag.Round, Node: ev.A.From, Verdict: VerdictAccused,
		Reason: fmt.Sprintf("signed equivocation on %v", ev.A.Tag), At: l.clock(),
	})
	return nil
}

// Strikes returns the strike count of a node.
func (l *Log) Strikes(node wire.NodeID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.strikes[node]
}

// Records returns a copy of the audit log in ingestion order.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

// Exclusions returns the nodes whose strikes meet or exceed budget, sorted.
func (l *Log) Exclusions(budget int) []wire.NodeID {
	if budget <= 0 {
		budget = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []wire.NodeID
	for node, n := range l.strikes {
		if n >= budget {
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
