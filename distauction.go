// Package distauction is a distributed auctioneer for resource allocation
// in decentralized systems — a Go implementation of the framework of Khan,
// Vilaça, Rodrigues and Freitag (ICDCS 2016).
//
// In a fully decentralized system no single node can be trusted to run an
// auction: any node may profit from perturbing the result. This library
// lets a set of m resource providers jointly *simulate* the trusted
// auctioneer so that the simulation is a k-resilient (ex post) equilibrium:
// under coalitions of up to k providers and arbitrary (fair) asynchrony,
// deviations can only force the aborted outcome ⊥ (utility 0 for everyone)
// — never a wrong accepted outcome — so rational providers follow the
// protocol. The framework chains two building blocks (bid agreement and a
// parallel allocator) and exploits the redundancy of the simulation to
// parallelise expensive allocation algorithms across provider groups.
//
// Two mechanisms ship with the library, matching the paper's case study of
// bandwidth allocation in community networks:
//
//   - a double auction (users and providers both bid; truthful and
//     budget-balanced water-filling with McAfee trade reduction), and
//   - a standard auction (only users bid; randomized (1−ε)-optimal
//     single-provider assignment with VCG payments, the computationally
//     heavy and parallelisable case).
//
// Both are also registered by name ("double", "standard") in the mechanism
// registry, so CLIs and config files can select them by string; register
// your own with RegisterMechanism.
//
// # Sessions
//
// The primary API is session-oriented: a provider opens a long-running
// Session that runs auction rounds continuously — collecting bids as they
// arrive, advancing round numbers automatically, pipelining round r+1's bid
// collection with round r's allocation, and reclaiming per-round protocol
// state as rounds complete. Bidders open a BidderSession and read per-round
// results from a channel. A session is the only way to run a round; a
// single scripted round is a session with WithRoundLimit(1).
//
// # Quick start
//
// Build an in-memory network, open provider sessions and a bidder session,
// submit a bid, read the outcome (error handling elided):
//
//	hub := distauction.NewHub(distauction.CommunityNetModel(), 1)
//	defer hub.Close()
//	top := distauction.Topology{
//		Providers: []distauction.NodeID{1, 2, 3},
//		Users:     []distauction.NodeID{100, 101},
//	}
//	for _, id := range top.Providers {
//		conn, _ := hub.Attach(id)
//		s, _ := distauction.Open(conn, top,
//			distauction.WithK(1),
//			distauction.WithMechanismName("double"),
//			distauction.WithBidWindow(2*time.Second))
//		defer s.Close()
//		go func() {
//			for range s.Outcomes() {
//			} // a provider daemon would act on each outcome here
//		}()
//	}
//	conn, _ := hub.Attach(top.Users[0])
//	b, _ := distauction.OpenBidder(conn, top.Providers)
//	defer b.Close()
//	b.Submit(1, distauction.UserBid{Value: distauction.Fx(1.2), Demand: distauction.Fx(0.8)})
//	out := <-b.Outcomes() // round 1's unanimous outcome (out.Err != nil on ⊥)
//
// See examples/ for complete programs, DESIGN.md for the architecture and
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
package distauction

import (
	"time"

	"distauction/internal/auction"
	"distauction/internal/core"
	"distauction/internal/fixed"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/mechanism/standardauction"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Core protocol types, aliased from the implementation packages so that the
// whole public surface is importable from this single package.
type (
	// NodeID identifies a participant (provider or bidder).
	NodeID = wire.NodeID
	// Fixed is the deterministic fixed-point number used for all currency
	// and bandwidth quantities (six decimal digits).
	Fixed = fixed.Fixed
	// UserBid declares a user's per-unit value and bandwidth demand.
	UserBid = auction.UserBid
	// ProviderBid declares a provider's per-unit cost and capacity
	// (double auctions only).
	ProviderBid = auction.ProviderBid
	// BidVector is the agreed vector of all bids.
	BidVector = auction.BidVector
	// Allocation maps users to bandwidth at providers.
	Allocation = auction.Allocation
	// Payments carries what users pay and providers receive.
	Payments = auction.Payments
	// Outcome is the auctioneer's result: an allocation and payments.
	Outcome = auction.Outcome

	// Session is a provider node's long-running auction engine: rounds run
	// continuously and pipelined, results stream from Session.Outcomes.
	Session = core.Session
	// BidderSession is the user-side client: submit bids for any round,
	// stream per-round unanimous outcomes from BidderSession.Outcomes.
	BidderSession = core.BidderSession
	// RoundOutcome is one round's result as streamed by sessions (Err is
	// non-nil for ⊥ rounds).
	RoundOutcome = core.RoundOutcome
	// Option configures a Session or BidderSession at Open time.
	Option = core.SessionOption
	// MechanismSpec carries the deployment facts a named mechanism factory
	// may need (capacities, tuning knobs).
	MechanismSpec = core.MechanismSpec
	// MechanismFactory builds a Mechanism from a MechanismSpec.
	MechanismFactory = core.MechanismFactory

	// Config describes an auction deployment to NewCentralized, its only
	// consumer: sessions take a Topology and functional options instead.
	Config = core.Config
	// Mechanism is the allocation algorithm A with its task decomposition.
	Mechanism = core.Mechanism
	// Centralized is the trusted-auctioneer baseline.
	Centralized = core.Centralized

	// Conn is a node's attachment to a network, and the one shape every
	// transport layer takes and returns: Self, Send, SendBatch, Close,
	// SetHandler, SetBatchHandler. Receiving is push-only — there is no
	// Recv; sessions install the handlers themselves, so callers only ever
	// obtain a Conn from a Network and hand it to Open / OpenBidder /
	// OpenMarket.
	Conn = transport.Conn
	// Network is a transport that participants attach to; Hub (in-memory)
	// and TCPNetwork (real TCP) both implement it.
	Network = transport.Network
	// Hub is the in-memory network with a configurable latency model.
	Hub = transport.Hub
	// LatencyModel configures per-message delay (base + per-byte + jitter).
	LatencyModel = transport.LatencyModel
	// TCPConfig configures a TCP transport node.
	TCPConfig = transport.TCPConfig
	// TCPNode is a node on a real TCP network.
	TCPNode = transport.TCPNode
	// TCPNetwork is the Network implementation over real TCP.
	TCPNetwork = transport.TCPNetwork
	// TCPNetworkConfig configures a TCPNetwork (address book, HMAC secret).
	TCPNetworkConfig = transport.TCPNetworkConfig

	// StandardParams tunes the standard auction's (1−ε) search.
	StandardParams = standardauction.Params

	// Ledger is the atomic settlement layer.
	Ledger = ledger.Ledger
	// Gateway models a community-network Internet gateway.
	Gateway = gateway.Gateway
	// Enforcer applies outcomes to gateways and the ledger — the external
	// mechanism that pays only on non-⊥ outcomes.
	Enforcer = gateway.Enforcer
)

// Topology names the fixed participant set of a deployment: the providers
// that jointly simulate the auctioneer and the user bidders. Every
// participant of a deployment must use the same topology.
type Topology struct {
	Providers []NodeID
	Users     []NodeID
}

// ErrOutcomeBot reports that the auction outcome is ⊥ (aborted or
// non-unanimous).
var ErrOutcomeBot = core.ErrOutcomeBot

// ErrConfig reports an invalid deployment configuration — including option
// validation failures from Open and OpenBidder.
var ErrConfig = core.ErrConfig

// Open validates the options and starts a long-running auction Session for
// a provider node. conn must belong to one of top.Providers; all providers
// of a deployment must open sessions with equivalent options (same k,
// mechanism, bid window and start round).
func Open(conn Conn, top Topology, opts ...Option) (*Session, error) {
	return core.OpenSession(conn, top.Providers, top.Users, opts...)
}

// OpenBidder starts a bidder session over conn addressing the given
// providers. Only WithStartRound, WithRoundLimit, WithOutcomeBuffer and
// WithRoundTimeout (per-round wait bound; a lost result costs that round
// as ⊥ instead of wedging the stream) apply; the start round must match
// the providers' sessions.
func OpenBidder(conn Conn, providers []NodeID, opts ...Option) (*BidderSession, error) {
	return core.OpenBidderSession(conn, providers, opts...)
}

// Session options, re-exported from the engine.

// WithK sets the coalition bound k (requires m > 2k providers).
func WithK(k int) Option { return core.WithK(k) }

// WithMechanism selects the allocation mechanism directly.
func WithMechanism(m Mechanism) Option { return core.WithMechanism(m) }

// WithMechanismName selects a registered mechanism by name ("double",
// "standard", or anything added via RegisterMechanism) with a zero spec.
func WithMechanismName(name string) Option { return core.WithMechanismName(name) }

// WithNamedMechanism selects a registered mechanism by name and builds it
// from spec at Open time.
func WithNamedMechanism(name string, spec MechanismSpec) Option {
	return core.WithNamedMechanism(name, spec)
}

// WithBidWindow sets how long each round waits for bid submissions.
func WithBidWindow(d time.Duration) Option { return core.WithBidWindow(d) }

// WithRoundTimeout bounds each round past bid collection; an overrunning
// round ends in ⊥ without wedging the session (0 disables).
func WithRoundTimeout(d time.Duration) Option { return core.WithRoundTimeout(d) }

// WithMaxConcurrentRounds sets the pipeline depth (rounds in flight).
func WithMaxConcurrentRounds(n int) Option { return core.WithMaxConcurrentRounds(n) }

// WithStartRound sets the first round number (default 1).
func WithStartRound(r uint64) Option { return core.WithStartRound(r) }

// WithRoundLimit stops the session after n rounds (0 = run until Close).
func WithRoundLimit(n uint64) Option { return core.WithRoundLimit(n) }

// WithOutcomeBuffer sets the outcomes channel capacity.
func WithOutcomeBuffer(n int) Option { return core.WithOutcomeBuffer(n) }

// WithProviderBid sets the provider's initial own bid (double auctions).
func WithProviderBid(bid ProviderBid) Option { return core.WithProviderBid(bid) }

// RegisterMechanism adds a named mechanism factory so deployments can
// select mechanisms by string (CLIs, config files, WithMechanismName).
func RegisterMechanism(name string, factory MechanismFactory) {
	core.RegisterMechanism(name, factory)
}

// LookupMechanism returns the factory registered under name.
func LookupMechanism(name string) (MechanismFactory, bool) { return core.LookupMechanism(name) }

// NewMechanism builds the named mechanism from spec.
func NewMechanism(name string, spec MechanismSpec) (Mechanism, error) {
	return core.NewMechanism(name, spec)
}

// MechanismNames lists the registered mechanism names, sorted.
func MechanismNames() []string { return core.MechanismNames() }

// Fx converts a float to Fixed, panicking on NaN/Inf/overflow. Use it for
// literals; parse external input with ParseFixed.
func Fx(v float64) Fixed { return fixed.MustFloat(v) }

// ParseFixed converts a decimal string ("1.25") to Fixed.
func ParseFixed(s string) (Fixed, error) { return fixed.Parse(s) }

// NewDoubleAuction returns the double-auction mechanism of §5.2.1:
// truthful, budget balanced, sorting-dominated (executed replicated).
func NewDoubleAuction() Mechanism { return core.DoubleAuction{} }

// NewStandardAuction returns the standard-auction mechanism of §5.2.2 with
// the given provider capacities: (1−ε)-optimal allocation with VCG
// payments, parallelised across provider groups.
func NewStandardAuction(params StandardParams) Mechanism {
	return core.StandardAuction{Params: params}
}

// NewHub creates an in-memory network. The latency model substitutes for
// real links (CommunityNetModel approximates a community wireless mesh);
// the seed makes jitter reproducible.
func NewHub(model LatencyModel, seed int64) *Hub { return transport.NewHub(model, seed) }

// CommunityNetModel is the latency model calibrated for the paper's
// community-network setting (≈2 ms base, ≈10 MB/s, 1 ms jitter).
func CommunityNetModel() LatencyModel { return transport.CommunityNetModel() }

// ListenTCP starts a real TCP transport node.
func ListenTCP(cfg TCPConfig) (*TCPNode, error) { return transport.ListenTCP(cfg) }

// NewTCPNetwork creates a TCP-backed Network from an address book, so the
// same deployment code runs over the Hub or over real sockets.
func NewTCPNetwork(cfg TCPNetworkConfig) *TCPNetwork { return transport.NewTCPNetwork(cfg) }

// NewCentralized starts the trusted-auctioneer baseline over conn: the one
// node that collects every bid and runs A itself, kept as the reference the
// distributed rounds are compared against. Its bidders are ordinary
// BidderSessions addressing the auctioneer as their only provider.
func NewCentralized(conn Conn, cfg Config) (*Centralized, error) {
	return core.NewCentralized(conn, cfg)
}

// NewLedger creates an empty settlement ledger.
func NewLedger() *Ledger { return ledger.New() }

// NewGateway creates a community-network gateway with the given capacity.
func NewGateway(id NodeID, capacity Fixed) *Gateway { return gateway.New(id, capacity, nil) }
