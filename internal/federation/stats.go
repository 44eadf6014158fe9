package federation

import (
	"fmt"
	"sort"

	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/wire"
)

// The federation's scopes of the stats tree (see market.Counters): a shard
// is the Add of its auctions, a node embeds its market's groups, the root is
// the Add of its shards' Counters and its nodes' Attachments.

// ShardSnapshot is one shard: the Add of its open auctions. Every auction
// runs a session on each committee member, so the shard reads exactly one
// member (the committee's first) and filters to the shard's lane band —
// counting each round once, not once per committee member.
type ShardSnapshot struct {
	Shard     int
	Committee []wire.NodeID
	Draining  bool
	market.Counters
	// Auctions are the shard's open auctions as its first committee member
	// sees them, sorted by name.
	Auctions []market.AuctionSnapshot
}

// Healthy is false when the shard is draining or ⊥ rounds dominate.
func (s ShardSnapshot) Healthy() bool { return !s.Draining && s.Counters.Healthy() }

// NodeSnapshot is one provider node's own view: its market's Counters over
// every auction it serves (each round is counted on every committee member
// here, unlike the shard rows — and gates run per member, so only this view
// sees a non-primary member's drops) and its Attachment, which lives per
// node and not per shard: a node serving two shards coalesces both shards'
// traffic into the same frames.
type NodeSnapshot struct {
	Node   wire.NodeID
	Serves []int // shard indices this node's market carries
	market.Counters
	market.Attachment
}

// Snapshot is the federation root: Counters is the Add of PerShard,
// Attachment the Add of PerNode, plus the cross-shard settlement leg.
type Snapshot struct {
	market.Counters
	market.Attachment

	SettleCommits int64 // cross-shard rounds settled atomically
	SettleAborts  int64 // cross-shard rounds aborted and released
	SettleErrs    int64 // settle rounds that returned an error
	// SettleLatency covers the two-phase settlement leg alone: barrier
	// release to commit/abort completion.
	SettleLatency metrics.HistogramSnapshot

	PerShard []ShardSnapshot // sorted by shard index
	PerNode  []NodeSnapshot  // sorted by node ID
}

// Scopes walks the tree: root, each shard followed by its auctions, each
// node, and the settlement leg — read as a scope whose rounds are the
// cross-shard groups it resolved (accepted = committed, ⊥ = aborted and
// released).
func (s Snapshot) Scopes() []market.Scope {
	scopes := []market.Scope{{Label: market.RootLabel, Counters: &s.Counters, Attachment: &s.Attachment}}
	for i := range s.PerShard {
		ss := &s.PerShard[i]
		label := fmt.Sprintf("shard %d (m=%d)", ss.Shard, len(ss.Committee))
		if ss.Draining {
			label += " draining"
		}
		scopes = append(scopes, market.Scope{Kind: market.ScopeShard, Name: fmt.Sprint(ss.Shard), Label: label, Counters: &ss.Counters})
		for j := range ss.Auctions {
			scopes = append(scopes, ss.Auctions[j].Scope())
		}
	}
	for i := range s.PerNode {
		ns := &s.PerNode[i]
		scopes = append(scopes, market.Scope{Kind: market.ScopeNode, Name: fmt.Sprint(ns.Node),
			Label: fmt.Sprintf("node %d (serves %v)", ns.Node, ns.Serves), Counters: &ns.Counters, Attachment: &ns.Attachment})
	}
	return append(scopes, market.Scope{Kind: market.ScopeSettle, Label: "settle", Counters: &market.Counters{
		Rounds:      s.SettleCommits + s.SettleAborts,
		Accepted:    s.SettleCommits,
		Aborted:     s.SettleAborts,
		EnforceErrs: s.SettleErrs,
		Latency:     s.SettleLatency,
	}})
}

// Stats returns the federation's snapshot, reading every node's market once.
func (f *Market) Stats() Snapshot {
	f.mu.Lock()
	shards := make([]ShardSnapshot, 0, len(f.shards))
	for _, st := range f.shards {
		// Draining is copied under the lock: DrainShard sets it there.
		shards = append(shards, ShardSnapshot{
			Shard:     st.spec.Index,
			Committee: append([]wire.NodeID(nil), st.spec.Providers...),
			Draining:  st.draining,
		})
	}
	markets := make(map[wire.NodeID]*market.Market, len(f.nodes))
	for id, n := range f.nodes {
		markets[id] = n.market
	}
	f.mu.Unlock()

	snap := Snapshot{
		SettleCommits: f.settler.Commits(),
		SettleAborts:  f.settler.Aborts(),
		SettleErrs:    f.settleErrs.Load(),
		SettleLatency: f.settler.Latency(),
		PerShard:      shards,
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	serves := make(map[wire.NodeID][]int)
	for _, ss := range shards {
		for _, id := range ss.Committee {
			serves[id] = append(serves[id], ss.Shard)
		}
	}
	auctions := make(map[wire.NodeID][]market.AuctionSnapshot, len(markets))
	for id, mk := range markets {
		ms := mk.Stats()
		auctions[id] = ms.Auctions
		snap.PerNode = append(snap.PerNode, NodeSnapshot{Node: id, Serves: serves[id], Counters: ms.Counters, Attachment: ms.Attachment})
		snap.Attachment.Add(ms.Attachment)
	}
	sort.Slice(snap.PerNode, func(i, j int) bool { return snap.PerNode[i].Node < snap.PerNode[j].Node })
	for i := range shards {
		ss := &shards[i]
		for _, as := range auctions[ss.Committee[0]] {
			if shard, _ := SplitLane(as.Lane); shard != ss.Shard {
				continue // the node serves other shards over the same market
			}
			ss.Auctions = append(ss.Auctions, as)
			ss.Counters.Add(as.Counters)
		}
		snap.Counters.Add(ss.Counters)
	}
	return snap
}
