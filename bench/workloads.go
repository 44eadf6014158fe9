package main

import (
	"math"
	"math/rand"
	"time"

	"distauction"
)

// workload fixes one deployment and one load shape.
type workload struct {
	name string
	why  string

	auctions  int  // concurrent auctions (lanes)
	market    bool // lanes multiplexed through Market / MarketBidder; false = one bare Session
	tcp       bool // loopback TCPNetwork + HMAC + Resilient; false = Hub + CommunityNetModel
	mechanism string
	m, n, k   int
	depth     int // provider pipeline depth (rounds in flight per auction)

	// Load. Closed loop keeps `ahead` rounds in flight per lane (1 =
	// lockstep). Open loop submits lane l's round r at
	// t0 + l·stagger + (r-1)·period and ignores `ahead`.
	open    bool
	ahead   int
	period  time.Duration
	stagger time.Duration
	limitMs float64 // open loop: latency limit on the tail percentile

	// passes × passRounds is the work of one run at runSeconds: each pass
	// drives passRounds rounds per lane over a fresh deployment, and the
	// run reports the median over the passes. Both are literals, so the
	// work is identical on every later commit. The fig* workloads need
	// their whole run for ten samples beyond p95 and make one pass.
	passes     int
	passRounds int
	// tailP is the tail percentile, fixed so that one pass leaves at least
	// ten samples beyond it.
	tailP float64
}

const (
	// runSeconds is BENCHMARK.json's run_seconds: the run length the round
	// counts below were sized for on the commit that introduced the
	// benchmark (2 cores).
	runSeconds = 20
	// setupCycles is how many cold set-up cycles one run measures, each in
	// a fresh process; the first is discarded.
	setupCycles = 15
	// roundTimeout bounds every round on both sides. A failed round is
	// ranked at this latency: above every sample a completed round can
	// produce.
	roundTimeout = 30 * time.Second
	bidWindow    = 10 * time.Second
)

var workloads = []workload{
	{
		name:     "market64-closed",
		why:      "64 small double auctions, closed loop, CPU-saturated: wire, coalescer/Hub, market mux, proto routing and the core engine do the work",
		auctions: 64, market: true, mechanism: "double", m: 3, n: 10, k: 1, depth: 4,
		ahead: 5, passes: 5, passRounds: 160, tailP: 99,
	},
	{
		name:     "market64-paced",
		why:      "same deployment, open loop at 1000 rounds/s (a third of saturation), timed from due time: batching that holds envelopes shows as latency here",
		auctions: 64, market: true, mechanism: "double", m: 3, n: 10, k: 1, depth: 4,
		open: true, period: 64 * time.Millisecond, stagger: time.Millisecond, limitMs: 100,
		passes: 5, passRounds: 62, tailP: 99,
	},
	{
		name:     "market16-tcp",
		why:      "16 auctions over loopback TCP with HMAC and the Resilient link layer, closed loop: the only workload that runs auth, TCP framing and the link fast path",
		auctions: 16, market: true, tcp: true, mechanism: "double", m: 3, n: 10, k: 1, depth: 4,
		ahead: 5, passes: 5, passRounds: 640, tailP: 99,
	},
	{
		name:     "fig4-double-n1000",
		why:      "paper Fig. 4 right edge, one double auction with m=8 k=3 n=1000 in lockstep: wide bid agreement and the n=1000 solve; mux and coalescer idle; tail is p95",
		auctions: 1, mechanism: "double", m: 8, n: 1000, k: 3, depth: 1,
		ahead: 1, passes: 1, passRounds: 212, tailP: 95,
	},
	{
		name:     "fig5-standard-n60",
		why:      "paper Fig. 5, one standard auction with m=8 k=1 (p=4) n=60, real compute, lockstep: taskgraph, coin, datatransfer, knapsack and VCG dominate; tail is p95",
		auctions: 1, mechanism: "standard", m: 8, n: 60, k: 1, depth: 1,
		ahead: 1, passes: 1, passRounds: 520, tailP: 95,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rounds is the per-lane round count of one pass. The driver always runs
// runSeconds, where it is the literal; another -seconds (a smoke run)
// scales it, and its figures compare only with runs of the same length.
func (w workload) rounds(seconds float64) int {
	return max(20, int(math.Round(float64(w.passRounds)*seconds/runSeconds)))
}

// bidSet is everything the program is fed: per lane, per round, per user
// the bid, plus each lane's provider-side bids (double auction). Only
// these depend on -seed.
type bidSet struct {
	users     [][][]distauction.UserBid   // [lane][round-1][user]
	providers [][]distauction.ProviderBid // [lane][provider]; nil for the standard auction
}

// generateBids draws the paper's §6.2/§6.3 distributions: user values
// uniform in [0.75, 1.25], demands uniform in (0, 1], provider unit costs
// uniform in (0, 1], provider capacities the expected per-provider demand
// share scaled by a factor uniform in [0.5, 1.5].
func generateBids(w workload, rounds int, seed int64) *bidSet {
	rng := rand.New(rand.NewSource(seed))
	bs := &bidSet{users: make([][][]distauction.UserBid, w.auctions)}
	if w.mechanism == "double" {
		bs.providers = make([][]distauction.ProviderBid, w.auctions)
	}
	share := float64(w.n) * 0.5 / float64(w.m)
	for l := range bs.users {
		if bs.providers != nil {
			bs.providers[l] = make([]distauction.ProviderBid, w.m)
			for p := range bs.providers[l] {
				bs.providers[l][p] = distauction.ProviderBid{
					Cost:     distauction.Fx(unit(rng)),
					Capacity: distauction.Fx(share * (0.5 + rng.Float64())),
				}
			}
		}
		bs.users[l] = make([][]distauction.UserBid, rounds)
		for r := range bs.users[l] {
			row := make([]distauction.UserBid, w.n)
			for u := range row {
				row[u] = distauction.UserBid{
					Value:  distauction.Fx(0.75 + 0.5*rng.Float64()),
					Demand: distauction.Fx(unit(rng)),
				}
			}
			bs.users[l][r] = row
		}
	}
	return bs
}

// unit draws uniformly from (0, 1], never below one micro-unit (a zero
// component would make the bid invalid).
func unit(rng *rand.Rand) float64 { return math.Max(1-rng.Float64(), 1e-6) }

// standardCapacities are the standard auction's per-provider capacities:
// deployment facts, not bids, so they do not move with -seed. As in §6.3
// they are the expected demand share scaled into [0, 0.25], so roughly a
// quarter of the users win.
func standardCapacities(w workload) []distauction.Fixed {
	rng := rand.New(rand.NewSource(6_3))
	share := float64(w.n) * 0.5 / float64(w.m)
	caps := make([]distauction.Fixed, w.m)
	for p := range caps {
		caps[p] = distauction.Fx(math.Max(share*0.25*rng.Float64(), 0.05))
	}
	return caps
}
