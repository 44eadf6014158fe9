package market

import (
	"fmt"
	"sort"

	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/transport"
)

// The stats tree. Two counter groups are declared here, once, each with one
// Add: Counters (rounds and admission) and Attachment (mux and link). Every
// scope of a deployment — auction, market (= one node), and the federation's
// shard, node and root — embeds the groups it has and is the Add of its
// children, so a new counter is one field and one line in Add. Derived
// values (Saturation, Healthy, BatchOccupancy, DeadPeers) are methods,
// computed where they are read.

// Counters is the round and admission counter set of one scope.
type Counters struct {
	Rounds   int64 // outcomes emitted
	Accepted int64 // non-⊥ outcomes
	Aborted  int64 // ⊥ outcomes
	// RoundsPerSec has one definition at every scope: the sum, over the
	// scope's open auctions, of rounds emitted ÷ seconds since that auction
	// opened.
	RoundsPerSec float64
	BidsAdmitted int64
	BidsDropped  int64
	QueueDepth   int // admitted bids not yet resolved by a completed round
	EnforceErrs  int64

	// Latency is the outcome-latency histogram (nanoseconds, bid collection
	// through delivery); query p50/p99/p999 via QuantileDuration.
	Latency metrics.HistogramSnapshot
	// AbortCodes breaks Aborted down by typed cause, indexed by
	// proto.AbortCode.
	AbortCodes [proto.NumAbortCodes]int64
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.Rounds += o.Rounds
	c.Accepted += o.Accepted
	c.Aborted += o.Aborted
	c.RoundsPerSec += o.RoundsPerSec
	c.BidsAdmitted += o.BidsAdmitted
	c.BidsDropped += o.BidsDropped
	c.QueueDepth += o.QueueDepth
	c.EnforceErrs += o.EnforceErrs
	c.Latency.Merge(o.Latency)
	for i, n := range o.AbortCodes {
		c.AbortCodes[i] += n
	}
}

// Saturation is the fraction of bids the scope's gates turned away —
// dropped / (admitted + dropped). A persistently saturated shard is the
// signal to grow the shard set.
func (c Counters) Saturation() float64 {
	if total := c.BidsAdmitted + c.BidsDropped; total > 0 {
		return float64(c.BidsDropped) / float64(total)
	}
	return 0
}

// Healthy is false when ⊥ rounds dominate.
func (c Counters) Healthy() bool { return c.Aborted*2 <= c.Rounds }

// Attachment is the counter set of one transport attachment: the mux's own
// counters plus, on transports with a resilience layer, the failure
// detector's table and the link's ARQ counters. Counters of this group live
// per node, never per auction or shard: a node coalesces all its lanes'
// traffic into the same frames.
type Attachment struct {
	// ParkedDropped counts envelopes dropped by parking overflow (lanes that
	// never opened, or a flood outpacing the bounds).
	ParkedDropped int64
	// FramesSent / SuperframesSent count outbound frames shipped by the
	// mux's per-peer coalescer and the superframes (>1 envelope) among them;
	// EnvelopesSent the envelopes they carried. Zero when the transport
	// cannot batch.
	FramesSent      int64
	SuperframesSent int64
	EnvelopesSent   int64
	// EnvelopesLost counts queued envelopes whose frame failed to ship
	// after their senders had returned (transport.CoalesceStats.Lost).
	EnvelopesLost int64
	// BatchesIn and BatchedEnvsIn count inbound superframes and the
	// envelopes they carried.
	BatchesIn     int64
	BatchedEnvsIn int64

	// PeerHealth is the failure detector's verdict per peer, sorted by peer
	// ID, and Link the ARQ counters — resends, reconnects, dups dropped by
	// seq. Both are zero on transports without a resilience layer.
	PeerHealth []transport.PeerHealth
	Link       transport.LinkStats
}

// Add folds o into a. Peer health merges by peer, keeping the worse verdict
// (and the longer silence), so a wider scope reports each peer once, as its
// most pessimistic attachment sees it.
func (a *Attachment) Add(o Attachment) {
	a.ParkedDropped += o.ParkedDropped
	a.FramesSent += o.FramesSent
	a.SuperframesSent += o.SuperframesSent
	a.EnvelopesSent += o.EnvelopesSent
	a.EnvelopesLost += o.EnvelopesLost
	a.BatchesIn += o.BatchesIn
	a.BatchedEnvsIn += o.BatchedEnvsIn
	a.Link = a.Link.Add(o.Link)
	if len(o.PeerHealth) == 0 {
		return
	}
	merged := make([]transport.PeerHealth, 0, len(a.PeerHealth)+len(o.PeerHealth))
	merged = append(append(merged, a.PeerHealth...), o.PeerHealth...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Peer < merged[j].Peer })
	a.PeerHealth = merged[:0]
	for _, ph := range merged {
		last := len(a.PeerHealth) - 1
		if last < 0 || a.PeerHealth[last].Peer != ph.Peer {
			a.PeerHealth = append(a.PeerHealth, ph)
			continue
		}
		a.PeerHealth[last].State = max(a.PeerHealth[last].State, ph.State)
		a.PeerHealth[last].SinceHeard = max(a.PeerHealth[last].SinceHeard, ph.SinceHeard)
	}
}

// BatchOccupancy is the average envelopes per outbound frame — the
// amortisation factor superframe batching is buying (1.0 = no win, 0 before
// any traffic).
func (a Attachment) BatchOccupancy() float64 {
	if a.FramesSent == 0 {
		return 0
	}
	return float64(a.EnvelopesSent) / float64(a.FramesSent)
}

// DeadPeers counts the peers currently judged dead.
func (a Attachment) DeadPeers() int {
	dead := 0
	for _, ph := range a.PeerHealth {
		if ph.State == transport.HealthDead {
			dead++
		}
	}
	return dead
}

// Scope is one stop of a walk over a stats tree — what a renderer sees.
// Kind and Name are the scope's Prometheus label and its value (both empty
// at the root); Label is its row in a table, with what only this kind of
// scope has to say (an auction's lane, a shard's committee). Attachment is
// nil for scopes that own no attachment.
type Scope struct {
	Kind, Name string
	Label      string
	Counters   *Counters
	Attachment *Attachment
}

// RootLabel is the root scope's table row.
const RootLabel = "TOTAL"

// Scope kinds below the root.
const (
	ScopeAuction = "auction"
	ScopeShard   = "shard"
	ScopeNode    = "node"
	ScopeSettle  = "settle"
)

// AuctionSnapshot is one auction's counters at a point in time.
type AuctionSnapshot struct {
	Name      string
	Lane      uint32
	LastRound uint64 // highest emitted round
	Counters
}

// Scope is the auction's stop in a walk.
func (as *AuctionSnapshot) Scope() Scope {
	return Scope{Kind: ScopeAuction, Name: as.Name, Label: fmt.Sprintf("%s (lane %d)", as.Name, as.Lane), Counters: &as.Counters}
}

// Snapshot is one market — one node — at a point in time: its attachment,
// its open auctions, and the Add of every auction it ever ran (closed
// auctions stay in the counters, so they only go up; RoundsPerSec and
// QueueDepth describe the open ones).
type Snapshot struct {
	Open  int   // auctions currently open
	Swept int64 // expired reservations reclaimed by sweep hooks
	Counters
	Attachment
	Auctions []AuctionSnapshot // the open auctions, sorted by name
}

// Scopes walks the tree: the market itself as the root, then its auctions.
func (s Snapshot) Scopes() []Scope {
	scopes := []Scope{{Label: RootLabel, Counters: &s.Counters, Attachment: &s.Attachment}}
	for i := range s.Auctions {
		scopes = append(scopes, s.Auctions[i].Scope())
	}
	return scopes
}

// snapshot captures one auction.
func (a *Auction) snapshot() AuctionSnapshot {
	as := AuctionSnapshot{
		Name:      a.name,
		Lane:      a.lane,
		LastRound: a.lastEmitted.Load(),
		Counters: Counters{
			Rounds:       a.rounds.Load(),
			Accepted:     a.accepted.Load(),
			Aborted:      a.aborted.Load(),
			RoundsPerSec: a.meter.Rate(),
			BidsAdmitted: a.gate.admitted.Load(),
			BidsDropped:  a.gate.dropped.Load(),
			QueueDepth:   a.gate.depth(),
			EnforceErrs:  a.enforceErrs.Load(),
			Latency:      a.latency.Snapshot(),
		},
	}
	for c := range as.AbortCodes {
		as.AbortCodes[c] = a.abortCodes[c].Load()
	}
	return as
}

// Stats returns the market's snapshot: the attachment's counters and the
// Add of the retired total and every open auction.
func (m *Market) Stats() Snapshot {
	m.mu.Lock()
	auctions := make([]*Auction, 0, len(m.byName))
	for _, a := range m.byName {
		auctions = append(auctions, a)
	}
	retired := m.retired
	m.mu.Unlock()
	snap := Snapshot{Open: len(auctions), Swept: m.swept.Load(), Counters: retired, Attachment: m.mux.Stats()}
	sort.Slice(auctions, func(i, j int) bool { return auctions[i].name < auctions[j].name })
	for _, a := range auctions {
		as := a.snapshot()
		snap.Auctions = append(snap.Auctions, as)
		snap.Counters.Add(as.Counters)
	}
	return snap
}
