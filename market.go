package distauction

import (
	"distauction/internal/core"
	"distauction/internal/market"
)

// Marketplace layer: many named auctions — each its own Session with its
// own mechanism, k, bid window and round cadence — multiplexed over ONE
// shared transport attachment per node. See internal/market and the
// "Marketplace layer" section of DESIGN.md.
type (
	// Market runs on each provider: it owns the auction catalog, admits
	// incoming bids (backpressure + fair share), fans outcomes out to
	// enforcement targets and exports per-auction and aggregate counters.
	Market = market.Market
	// MarketOption configures a Market at OpenMarket time.
	MarketOption = market.Option
	// AuctionSpec describes one auction of the catalog (name, lane, users,
	// session options, optional enforcement target).
	AuctionSpec = market.AuctionSpec
	// MarketAuction is a provider-side handle on one open auction.
	MarketAuction = market.Auction
	// EnforceTarget wires an auction's accepted outcomes to gateways and a
	// ledger (⊥ reserves and pays nothing).
	EnforceTarget = market.EnforceTarget
	// MarketBidder is the user-side marketplace client: one attachment,
	// join auctions by name.
	MarketBidder = market.Bidder
	// MarketSnapshot is one market's scope of the stats tree: its round
	// and admission Counters (the Add of its auctions'), its transport
	// Attachment's counters, and the per-auction breakdown.
	MarketSnapshot = market.Snapshot
	// AuctionSnapshot is one auction's Counters.
	AuctionSnapshot = market.AuctionSnapshot
)

// Marketplace errors, re-exported for errors.Is.
var (
	// ErrMarketClosed reports use of a closed Market or MarketBidder.
	ErrMarketClosed = market.ErrMarketClosed
	// ErrUnknownAuction reports an operation on an auction that is not open.
	ErrUnknownAuction = market.ErrUnknownAuction
	// ErrLaneCollision reports two auction names hashing to the same wire
	// lane; pin an explicit AuctionSpec.Lane (on every provider) to resolve.
	ErrLaneCollision = market.ErrLaneCollision
)

// OpenMarket starts an empty marketplace for a provider node over conn —
// the node's single attachment, shared by every auction opened later. All
// providers of a deployment open markets over the same provider set and
// then open each auction with an equivalent AuctionSpec.
func OpenMarket(conn Conn, providers []NodeID, opts ...MarketOption) (*Market, error) {
	return market.Open(conn, providers, opts...)
}

// OpenMarketBidder starts the user-side marketplace client over conn; join
// auctions with MarketBidder.Join (or JoinLane for pinned lanes).
func OpenMarketBidder(conn Conn, providers []NodeID) (*MarketBidder, error) {
	return market.NewBidder(conn, providers)
}

// LaneForName is the deterministic auction-name → wire-lane assignment
// every market uses by default; exported so deployments can predict and
// audit lane usage.
func LaneForName(name string) uint32 { return market.LaneForName(name) }

// WithAdmissionWindow sets how many rounds ahead of the last completed
// round bids are admitted (per auction; AuctionSpec can override).
func WithAdmissionWindow(n int) MarketOption { return market.WithAdmissionWindow(n) }

// WithSweepEvery sets the enforcement sweep cadence: every n completed
// rounds of an enforced auction its gateways drop expired reservations
// eagerly (0 disables).
func WithSweepEvery(n int) MarketOption { return market.WithSweepEvery(n) }

// WithOnOutcome installs a non-blocking callback invoked for every round
// outcome of every auction (after enforcement).
func WithOnOutcome(f func(auction string, out RoundOutcome)) MarketOption {
	return market.WithOnOutcome(func(name string, out core.RoundOutcome) { f(name, out) })
}
