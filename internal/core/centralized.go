package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"distauction/internal/auction"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Centralized is the trusted-auctioneer baseline of §6: a single node that
// collects all bids, executes A locally and reports the outcome. It exists
// to measure the overhead of the distributed simulation (Figure 4) and the
// serial running time p=1 (Figure 5) — in a genuinely decentralized system
// no such trusted node exists, which is the paper's whole point.
type Centralized struct {
	cfg  Config
	peer *proto.Peer
}

// NewCentralized wraps conn into a centralized auctioneer. The connection's
// node must be the single entry of cfg.Providers... not quite: the auction
// still involves the configured providers as *market participants* (their
// bids and capacities), but only this node computes. cfg.Providers lists
// the market providers; conn.Self() is the auctioneer and may be one of
// them or a distinct node.
func NewCentralized(conn transport.Conn, cfg Config) (*Centralized, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Providers) == 0 || cfg.Mechanism == nil {
		return nil, fmt.Errorf("%w: centralized auctioneer needs providers and a mechanism", ErrConfig)
	}
	// The auctioneer is the only protocol node: bidders address it alone.
	return &Centralized{cfg: cfg, peer: proto.NewPeer(conn, []wire.NodeID{conn.Self()})}, nil
}

// Close releases the auctioneer's network resources.
func (c *Centralized) Close() error { return c.peer.Close() }

// EndRound releases the round's buffered protocol state.
func (c *Centralized) EndRound(round uint64) { c.peer.EndRound(round) }

// RunRound collects bids, executes A locally and reports the outcome to all
// bidders. Provider bids (double-sided mechanisms) are submitted by the
// market providers over the network like any other bid.
func (c *Centralized) RunRound(ctx context.Context, round uint64) (auction.Outcome, error) {
	cfg := c.cfg
	window, cancel := context.WithTimeout(ctx, cfg.BidWindow)
	defer cancel()

	tag := wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1}
	bids := auction.BidVector{Users: make([]auction.UserBid, len(cfg.Users))}
	for i, bidder := range cfg.Users {
		raw, err := c.peer.Receive(window, tag, bidder)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return auction.Outcome{}, err
		}
		if err == nil && len(raw) <= MaxRawBidSize {
			bids.Users[i] = auction.SanitizeUserBid(raw)
		}
	}
	if cfg.Mechanism.DoubleSided() {
		bids.Providers = make([]auction.ProviderBid, len(cfg.Providers))
		for j, prov := range cfg.Providers {
			raw, err := c.peer.Receive(window, tag, prov)
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				return auction.Outcome{}, err
			}
			if err == nil && len(raw) <= MaxRawBidSize {
				bids.Providers[j] = auction.SanitizeProviderBid(raw)
			}
		}
	}

	var seedBytes [8]byte
	if _, err := rand.Read(seedBytes[:]); err != nil {
		return auction.Outcome{}, fmt.Errorf("core: entropy: %w", err)
	}
	outcome, err := cfg.Mechanism.Solve(bids, binary.BigEndian.Uint64(seedBytes[:]))
	if err != nil {
		c.deliver(round, false, nil)
		return auction.Outcome{}, fmt.Errorf("core: solve: %w", err)
	}
	c.deliver(round, true, outcome.Encode())
	return outcome, nil
}

func (c *Centralized) deliver(round uint64, ok bool, rawOutcome []byte) {
	payload := encodeResult(ok, rawOutcome)
	tag := wire.Tag{Round: round, Block: wire.BlockResult, Step: 1}
	for _, u := range c.cfg.Users {
		_ = c.peer.Send(u, tag, payload)
	}
}

// SubmitProviderBid is the market-provider client used with a centralized
// auctioneer: it sends the provider's bid to the auctioneer node.
func SubmitProviderBid(conn transport.Conn, auctioneer wire.NodeID, round uint64, bid auction.ProviderBid) error {
	env := wire.Envelope{
		From:    conn.Self(),
		To:      auctioneer,
		Tag:     wire.Tag{Round: round, Block: wire.BlockBidSubmit, Step: 1},
		Payload: bid.Encode(),
	}
	return conn.Send(env)
}
