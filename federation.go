package distauction

import (
	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/transport"
)

// Sharded federation layer: the auction catalog partitioned across many
// provider committees (shards) behind one market façade — many committees,
// one market. Placement is deterministic (rendezvous hashing over the
// active shard set), bidders keep one attachment across all shards, and
// cross-shard settlement is atomic through the shared ledger. See
// internal/federation and the "Sharded federation" section of DESIGN.md.
type (
	// Federation is the federated marketplace façade: one catalog, one
	// Stats rollup, many provider committees.
	Federation = federation.Market
	// FederationOption configures a Federation at OpenFederation time.
	FederationOption = federation.Option
	// ShardSpec names a shard: a 1-based index and its provider committee.
	ShardSpec = federation.ShardSpec
	// FederatedAuctionSpec describes one auction of the federated catalog
	// (routed or pinned placement, per-member options, optional
	// cross-shard settle group).
	FederatedAuctionSpec = federation.AuctionSpec
	// FederationBidder is the user-side client: one attachment, auctions
	// on any shard.
	FederationBidder = federation.Bidder
	// ShardRouter maps auction names to shards (pins win, rendezvous
	// otherwise).
	ShardRouter = federation.Router
	// FederationSnapshot is the root of the federation's stats tree: the
	// Add of its shards' Counters and its nodes' Attachments, the
	// cross-shard settlement counters, and the per-shard and per-node rows.
	FederationSnapshot = federation.Snapshot
	// ShardSnapshot is one shard: the Add of its auctions.
	ShardSnapshot = federation.ShardSnapshot
)

// Federation errors, re-exported for errors.Is.
var (
	// ErrFederationClosed reports use of a closed Federation.
	ErrFederationClosed = federation.ErrClosed
	// ErrUnknownShard reports an operation on a shard that is not open.
	ErrUnknownShard = federation.ErrUnknownShard
	// ErrShardDraining reports an OpenAuction on a draining shard.
	ErrShardDraining = federation.ErrShardDraining
)

// MaxShards is the number of addressable shards (the shard band of the
// wire lane space).
const MaxShards = federation.MaxShards

// OpenFederation starts a federated market over net with the given initial
// shards: every committee node is attached and runs a Market; auctions
// opened later place onto shards deterministically.
func OpenFederation(net transport.Network, shards []ShardSpec, opts ...FederationOption) (*Federation, error) {
	return federation.Open(net, shards, opts...)
}

// OpenFederationBidder starts the user-side federation client over conn
// (the user's single attachment). The shard specs must match the
// providers' — deterministic placement is the coordination protocol.
func OpenFederationBidder(conn Conn, shards []ShardSpec) (*FederationBidder, error) {
	return federation.NewBidder(conn, shards)
}

// PlaceShardForName is the deterministic rendezvous placement of an
// auction name over a shard set; exported so any participant can predict
// and audit placement without holding a router.
func PlaceShardForName(name string, shards []int) int {
	return federation.PlaceForName(name, shards)
}

// ShardLaneForName is the shard-local lane an auction name derives by
// default — the sharded generalisation of LaneForName.
func ShardLaneForName(name string) uint32 { return federation.LocalLaneForName(name) }

// WithFederationMarketOptions forwards options to every per-node market
// the federation opens.
func WithFederationMarketOptions(opts ...MarketOption) FederationOption {
	return federation.WithMarketOptions(opts...)
}

// WithFederationOnOutcome installs a non-blocking callback invoked once
// per round outcome of every federated auction (after settlement).
func WithFederationOnOutcome(f func(auction string, shard int, out RoundOutcome)) FederationOption {
	return federation.WithOnOutcome(func(name string, shard int, out core.RoundOutcome) {
		f(name, shard, out)
	})
}
