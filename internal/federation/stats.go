package federation

import (
	"sort"

	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// ShardSnapshot aggregates one shard's auctions. Every auction runs a
// session on each committee member, so the rollup reads exactly one member
// (the shard's first) and filters to the shard's lane band — counting each
// round once, not once per committee member.
type ShardSnapshot struct {
	Shard     int
	Committee []wire.NodeID
	Draining  bool

	Auctions     int
	Rounds       int64
	Accepted     int64
	Aborted      int64
	RoundsPerSec float64 // sum of the shard's per-auction rates
	BidsAdmitted int64
	BidsDropped  int64
	QueueDepth   int
	EnforceErrs  int64

	// Saturation is the fraction of bids the shard's gates turned away —
	// dropped / (admitted + dropped). A persistently saturated shard is the
	// signal to grow the shard set.
	Saturation float64
	// Healthy is false when the shard is draining or ⊥ rounds dominate.
	Healthy bool

	// Latency merges the shard's per-auction outcome-latency histograms
	// (nanoseconds, bid collection through outcome delivery) — ask it for
	// p50/p99/p999 via Quantile.
	Latency metrics.HistogramSnapshot
	// AbortCodes breaks the shard's ⊥ rounds down by typed cause, indexed
	// by proto.AbortCode.
	AbortCodes [proto.NumAbortCodes]int64

	// PerAuction is the breakdown the aggregates above were summed from:
	// the shard's auctions as its first committee member sees them, sorted
	// by name.
	PerAuction []market.AuctionSnapshot
}

// NodeSnapshot is one provider node's transport-level view. Mux counters
// live per attachment, not per shard, so they are reported per node (a node
// serving two shards coalesces both shards' traffic into the same frames —
// attributing them to either shard would double- or mis-count).
type NodeSnapshot struct {
	Node   wire.NodeID
	Serves []int // shard indices this node's market carries

	// Rounds counts outcomes consumed by this node's market across every
	// auction it serves (each auction is counted on every committee member
	// here, unlike the shard rollup above — the federation-wide total is
	// Σ committee size × rounds).
	Rounds int64
	// BidsAdmitted / BidsDropped are this node's own admission gates across
	// its auctions (gates run per member, so the primary-only shard rollup
	// cannot see another member's drops).
	BidsAdmitted    int64
	BidsDropped     int64
	ParkedDropped   int64
	FramesSent      int64
	SuperframesSent int64
	EnvelopesSent   int64
	BatchOccupancy  float64

	// PeerHealth and Link are this attachment's failure-detector table and
	// ARQ counters (empty/zero without a resilience layer). Per node, not
	// per shard: health is a property of the attachment.
	PeerHealth []transport.PeerHealth
	Link       transport.LinkStats
}

// Snapshot is the federation-wide rollup: totals, the per-shard and
// per-node breakdowns, and the cross-shard settlement counters.
type Snapshot struct {
	Shards       int
	Auctions     int
	Rounds       int64
	Accepted     int64
	Aborted      int64
	RoundsPerSec float64
	BidsAdmitted int64
	BidsDropped  int64
	QueueDepth   int
	EnforceErrs  int64

	SettleCommits int64 // cross-shard rounds settled atomically
	SettleAborts  int64 // cross-shard rounds aborted and released
	SettleErrs    int64 // settle rounds that returned an error

	// Link sums every node's ARQ counters; DeadPeers counts peers some
	// attachment currently judges dead (per-node detail in PerNode).
	Link      transport.LinkStats
	DeadPeers int

	// Latency is the federation-wide outcome-latency histogram (the merge
	// of every shard's) and AbortCodes the federation-wide abort-cause
	// breakdown. SettleLatency covers the two-phase settlement leg alone:
	// barrier release to commit/abort completion.
	Latency       metrics.HistogramSnapshot
	AbortCodes    [proto.NumAbortCodes]int64
	SettleLatency metrics.HistogramSnapshot

	// Runtime is the process-wide heap/GC/goroutine view at snapshot time
	// (one process hosts every node in-process, so it is reported once at
	// the federation level, not per node).
	Runtime metrics.RuntimeStats

	PerShard []ShardSnapshot
	PerNode  []NodeSnapshot
}

// Stats returns the federation rollup. Per-shard aggregates come from each
// shard's first committee member; per-node transport counters from every
// node's mux.
func (f *Market) Stats() Snapshot {
	f.mu.Lock()
	type shardRef struct {
		st      *shardState
		primary *node
	}
	shards := make([]shardRef, 0, len(f.shards))
	for _, st := range f.shards {
		shards = append(shards, shardRef{st, f.nodes[st.spec.Providers[0]]})
	}
	type nodeRef struct {
		id wire.NodeID
		n  *node
	}
	nodes := make([]nodeRef, 0, len(f.nodes))
	for id, n := range f.nodes {
		nodes = append(nodes, nodeRef{id, n})
	}
	serves := make(map[wire.NodeID][]int)
	for _, ref := range shards {
		for _, id := range ref.st.spec.Providers {
			serves[id] = append(serves[id], ref.st.spec.Index)
		}
	}
	f.mu.Unlock()

	snap := Snapshot{
		Shards:        len(shards),
		SettleCommits: f.settler.Commits(),
		SettleAborts:  f.settler.Aborts(),
		SettleErrs:    f.settleErrs.Load(),
		SettleLatency: f.settler.Latency(),
		Runtime:       metrics.ReadRuntime(),
	}
	for _, ref := range shards {
		ss := ShardSnapshot{
			Shard:     ref.st.spec.Index,
			Committee: append([]wire.NodeID(nil), ref.st.spec.Providers...),
			Draining:  ref.st.draining,
		}
		if ref.primary != nil {
			// The primary's snapshot slice is fresh and ours: filter it in
			// place rather than copying the (histogram-sized) entries out.
			auctions := ref.primary.market.Stats().Auctions
			ss.PerAuction = auctions[:0]
			for _, as := range auctions {
				if shard, _ := SplitLane(as.Lane); shard != ss.Shard {
					continue // the node serves other shards over the same market
				}
				ss.PerAuction = append(ss.PerAuction, as)
				ss.Auctions++
				ss.Rounds += as.Rounds
				ss.Accepted += as.Accepted
				ss.Aborted += as.Aborted
				ss.RoundsPerSec += as.RoundsPerSec
				ss.BidsAdmitted += as.BidsAdmitted
				ss.BidsDropped += as.BidsDropped
				ss.QueueDepth += as.QueueDepth
				ss.EnforceErrs += as.EnforceErrs
				ss.Latency.Merge(as.Latency)
				for i, n := range as.AbortCodes {
					ss.AbortCodes[i] += n
				}
			}
		}
		if total := ss.BidsAdmitted + ss.BidsDropped; total > 0 {
			ss.Saturation = float64(ss.BidsDropped) / float64(total)
		}
		ss.Healthy = !ss.Draining && ss.Aborted*2 <= ss.Rounds
		snap.PerShard = append(snap.PerShard, ss)

		snap.Auctions += ss.Auctions
		snap.Rounds += ss.Rounds
		snap.Accepted += ss.Accepted
		snap.Aborted += ss.Aborted
		snap.RoundsPerSec += ss.RoundsPerSec
		snap.BidsAdmitted += ss.BidsAdmitted
		snap.BidsDropped += ss.BidsDropped
		snap.QueueDepth += ss.QueueDepth
		snap.EnforceErrs += ss.EnforceErrs
		snap.Latency.Merge(ss.Latency)
		for i, n := range ss.AbortCodes {
			snap.AbortCodes[i] += n
		}
	}
	sort.Slice(snap.PerShard, func(i, j int) bool { return snap.PerShard[i].Shard < snap.PerShard[j].Shard })

	for _, ref := range nodes {
		ms := ref.n.market.Stats()
		sv := serves[ref.id]
		sort.Ints(sv)
		ns := NodeSnapshot{
			Node:            ref.id,
			Serves:          sv,
			Rounds:          ms.Rounds,
			BidsAdmitted:    ms.BidsAdmitted,
			BidsDropped:     ms.BidsDropped,
			ParkedDropped:   ms.ParkedDropped,
			FramesSent:      ms.FramesSent,
			SuperframesSent: ms.SuperframesSent,
			EnvelopesSent:   ms.EnvelopesSent,
			BatchOccupancy:  ms.BatchOccupancy,
			PeerHealth:      ms.PeerHealth,
			Link:            ms.Link,
		}
		snap.Link = snap.Link.Add(ns.Link)
		for _, ph := range ns.PeerHealth {
			if ph.State == transport.HealthDead {
				snap.DeadPeers++
			}
		}
		snap.PerNode = append(snap.PerNode, ns)
	}
	sort.Slice(snap.PerNode, func(i, j int) bool { return snap.PerNode[i].Node < snap.PerNode[j].Node })
	return snap
}
