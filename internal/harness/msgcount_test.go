package harness

import (
	"sync"
	"testing"
	"time"

	"distauction/internal/auction"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// roundCounter is a Hub that counts, per round tag, the envelopes its
// connections hand to the network.
type roundCounter struct {
	*transport.Hub
	mu   sync.Mutex
	sent map[uint64]int
}

func newRoundCounter(seed int64) *roundCounter {
	return &roundCounter{Hub: transport.NewHub(transport.LatencyModel{}, seed), sent: map[uint64]int{}}
}

func (n *roundCounter) Attach(id wire.NodeID) (transport.Conn, error) {
	c, err := n.Hub.Attach(id)
	return countingConn{c, n}, err
}

func (n *roundCounter) count(envs []wire.Envelope) {
	n.mu.Lock()
	for _, env := range envs {
		n.sent[env.Tag.Round]++
	}
	n.mu.Unlock()
}

type countingConn struct {
	transport.Conn
	n *roundCounter
}

func (c countingConn) Send(env wire.Envelope) error {
	err := c.Conn.Send(env)
	if err == nil {
		c.n.count([]wire.Envelope{env})
	}
	return err
}

func (c countingConn) SendBatch(envs []wire.Envelope) error {
	err := c.Conn.SendBatch(envs)
	if err == nil {
		c.n.count(envs)
	}
	return err
}

// TestRoundMessageCounts pins the network messages of a steady-state
// standard-auction round at m=8, k=1, n=60 — the fig5-standard-n60
// deployment — of a double-auction round at the same size, and of one at
// m=3, n=10, the shape of each market64 lane. A self-addressed send never
// reaches the network and is not counted. Every round here is honest, so
// bid agreement ends on its digest path: one digest from every provider to
// every other, no commit, echo, reveal or input validation.
//
// Round 1 is left out of every count: a provider whose peers have not
// attached yet retries its round's first message to them — the double
// auction's ask, the standard auction's coin commit.
func TestRoundMessageCounts(t *testing.T) {
	const m, n = 8, 60
	opts := func(net *roundCounter, m, n int) []Option {
		return []Option{WithProviders(m), WithUsers(n), WithK(1), WithSeed(1), WithBidWindow(5 * time.Second),
			WithNetwork(func(int64) transport.Network { return net })}
	}

	std := newRoundCounter(1)
	cfg := newConfig(opts(std, m, n))
	mech, userBids, err := cfg.standardAuction()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runSession(cfg, mech, nil, [][]auction.UserBid{userBids, userBids, userBids})
	if err != nil {
		t.Fatal(err)
	}
	// The standard auction is one-sided, so providers broadcast no asks.
	// Its graph is allocation at all 8, four payment groups of 2, and a
	// gather at all 8 (p = m/(k+1) = 4).
	const (
		bids        = n * m           // 480: every bidder to every provider
		results     = m * n           // 480: every provider to every bidder
		agreement   = m * (m - 1)     //  56: bid agreement's digests
		coin        = 3 * m * (m - 1) // 168: the allocation's coin toss: commit, echo, reveal
		digests     = 2*m*(m-1) + 4*2 // 120: allocation and gather at all 8, each payment group's pair
		transfers   = 4 * 2 * (m - 2) //  48: each payment share from its 2 computers to the 6 others
		stdPerRound = bids + results + agreement + coin + digests + transfers
	)
	// A payment share now leaves as soon as its group has computed it,
	// beside the group's digest, not after the group's digest gather and
	// the allocation's: only the time of the 48 transfers moved. Each still
	// goes from both members of its group to the 6 providers outside it,
	// once; every digest gather still runs; no message was added or
	// dropped, so the round is still 1352.
	// Before agreement tested digests first, it ran commit, echo and
	// reveal (3·56) and then input validation (56) on every round: 1520.
	// Before the transfer plan, each payment share also went to its own
	// group's other member (+8), and the allocation went from all 8
	// providers to each payment group's 2 members (+56): 1584.
	if stdPerRound != 1352 {
		t.Fatalf("arithmetic: %d", stdPerRound)
	}
	for r := uint64(2); r <= 3; r++ {
		if got := std.sent[r]; got != stdPerRound {
			t.Errorf("standard round %d sent %d messages, want %d", r, got, stdPerRound)
		}
	}
	// The Hub's own counter agrees: its total less what round 1 sent.
	if got := res.Msgs - int64(std.sent[1]); got != 2*stdPerRound {
		t.Errorf("hub counted %d messages in rounds 2–3, want %d", got, 2*stdPerRound)
	}

	// The double auction is a one-task graph: no transfer before or after
	// it.
	dblPerRound := func(m, n int) int {
		return n*m + // bids
			m*(m-1) + // provider asks
			m*(m-1) + // bid agreement's digests
			m*(m-1) + // digests of the one task
			m*n // results
	}
	// Before agreement tested digests first, each round also sent
	// 4·m(m−1) for agreement's commit, echo and reveal and for input
	// validation: 1296 and 96.
	for _, c := range []struct{ m, n, want int }{
		{8, 60, 1128}, // 480 + 56 + 56 + 56 + 480
		{3, 10, 78},   // 30 + 6 + 6 + 6 + 30: a market64 lane
	} {
		if got := dblPerRound(c.m, c.n); got != c.want {
			t.Fatalf("arithmetic m=%d n=%d: %d", c.m, c.n, got)
		}
		dbl := newRoundCounter(1)
		if _, err := RunSessionDouble(3, opts(dbl, c.m, c.n)...); err != nil {
			t.Fatal(err)
		}
		for r := uint64(2); r <= 3; r++ {
			if got := dbl.sent[r]; got != c.want {
				t.Errorf("double m=%d n=%d round %d sent %d messages, want %d", c.m, c.n, r, got, c.want)
			}
		}
	}
}
