// Package doubleauction implements the double-auction allocation algorithm
// of §5.2.1, a variant of the McAfee trade-reduction mechanism in the style
// of Zheng et al. (STAR): providers are ordered by increasing unit cost,
// users by decreasing unit value, and bandwidth is matched by water-filling
// — each user's demand is poured into the cheapest providers with remaining
// capacity while the trade is profitable.
//
// To obtain truthfulness together with budget balance (at the expense of
// some social welfare, exactly the trade-off the paper cites from Myerson-
// Satterthwaite), the marginal trade is sacrificed: the last matched user ℓ
// is removed, winners pay a uniform unit price equal to ℓ's value (the
// highest losing bid), and providers are paid a uniform unit price equal to
// the cost of the first unused provider (capped by the buyer price). Both
// prices are thresholds independent of the payer's own bid.
//
// The algorithm is sorting-dominated, so the framework runs it replicated at
// every provider rather than parallelised (§5.2.1: "in most practical
// settings there is no performance gain in parallelising").
package doubleauction

import (
	"fmt"
	"slices"
	"sync"

	"distauction/internal/auction"
	"distauction/internal/fixed"
)

// fill records one water-filling step so the marginal trade can be rolled
// back.
type fill struct {
	user, prov int
	units      fixed.Fixed
}

// scratch is the solver's working set — order indices, remaining
// capacities, fill log — recycled across Solve calls. Only index and
// fixed-point values live here, never caller data, so a recycled scratch
// carries nothing between rounds.
type scratch struct {
	users, provs []int
	remCap       []fixed.Fixed
	fills        []fill
}

// Without scratchPool, BenchmarkSolve/n=100 reads 32.8 µs/op and 25
// allocs/op, not 24.5 and 3, and BenchmarkSteadyStateAllocs 198.2
// allocs/round, not 153.9 (EXPERIMENTS.md).
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// Solve runs the double auction on the agreed bid vector and returns the
// outcome. Neutral and invalid bids take no part. Solve is deterministic:
// every provider replaying it on the same vector obtains identical bytes.
func Solve(bids auction.BidVector) (auction.Outcome, error) {
	n, m := len(bids.Users), len(bids.Providers)
	out := auction.Outcome{
		Alloc: auction.NewAllocation(n, m),
		Pay:   auction.NewPayments(n, m),
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Order the sides. Ties break on index so the order is total and
	// identical at every provider.
	users := sc.users[:0]
	for i, b := range bids.Users {
		if b.Validate() == nil && !b.IsNeutral() {
			users = append(users, i)
		}
	}
	sc.users = users
	slices.SortFunc(users, func(a, b int) int {
		va, vb := bids.Users[a].Value, bids.Users[b].Value
		if va != vb {
			if va > vb {
				return -1
			}
			return 1
		}
		return a - b
	})
	provs := sc.provs[:0]
	for j, b := range bids.Providers {
		if b.Validate() == nil && !b.IsNeutral() {
			provs = append(provs, j)
		}
	}
	sc.provs = provs
	slices.SortFunc(provs, func(a, b int) int {
		ca, cb := bids.Providers[a].Cost, bids.Providers[b].Cost
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		return a - b
	})
	if len(users) == 0 || len(provs) == 0 {
		return out, nil
	}

	// Water-filling.
	if cap(sc.remCap) < m {
		sc.remCap = make([]fixed.Fixed, m)
	} else {
		sc.remCap = sc.remCap[:m]
		clear(sc.remCap)
	}
	remCap := sc.remCap
	for _, j := range provs {
		remCap[j] = bids.Providers[j].Capacity
	}
	fills := sc.fills[:0]
	lastUserPos := -1 // position in users[] of the last user that traded
	pi := 0
fillLoop:
	for upos, u := range users {
		value := bids.Users[u].Value
		rem := bids.Users[u].Demand
		traded := false
		for rem > 0 && pi < len(provs) {
			j := provs[pi]
			if value <= bids.Providers[j].Cost {
				// Providers only get costlier and users only get cheaper
				// from here: no further profitable trade exists at all.
				if traded {
					lastUserPos = upos
				}
				break fillLoop
			}
			if remCap[j] == 0 {
				pi++
				continue
			}
			take := fixed.Min2(rem, remCap[j])
			out.Alloc.Add(u, j, take)
			fills = append(fills, fill{user: u, prov: j, units: take})
			sc.fills = fills
			rem -= take
			remCap[j] -= take
			traded = true
		}
		if traded {
			lastUserPos = upos
		}
		if pi == len(provs) {
			break
		}
	}
	if lastUserPos < 0 {
		return out, nil // no profitable trade at all
	}

	// Trade reduction: remove the marginal user ℓ entirely.
	marginal := users[lastUserPos]
	for _, f := range fills {
		if f.user == marginal {
			out.Alloc.Set(f.user, f.prov, 0)
			remCap[f.prov] += f.units
		}
	}

	// If ℓ was the only trader, nothing trades (degenerate McAfee case).
	anyTrade := false
	lastUsedPos := -1 // position in provs[] of the most expensive used provider
	for pos, j := range provs {
		if out.Alloc.ProviderLoad(j) > 0 {
			anyTrade = true
			lastUsedPos = pos
		}
	}
	if !anyTrade {
		return out, nil
	}

	// Threshold prices. Buyers pay the excluded user's value; sellers are
	// paid the cost of the first unused provider, capped by the buyer price.
	buyerPrice := bids.Users[marginal].Value
	sellerPrice := buyerPrice
	if next := lastUsedPos + 1; next < len(provs) {
		sellerPrice = fixed.Min2(buyerPrice, bids.Providers[provs[next]].Cost)
	}

	// Internal invariants the construction guarantees; violating them would
	// break individual rationality, so fail loudly rather than mis-pay.
	for pos := 0; pos <= lastUsedPos; pos++ {
		j := provs[pos]
		if out.Alloc.ProviderLoad(j) > 0 && bids.Providers[j].Cost > sellerPrice {
			return auction.Outcome{}, fmt.Errorf(
				"doubleauction: seller price %v below cost of used provider %d (%v)",
				sellerPrice, j, bids.Providers[j].Cost)
		}
	}

	// Payments are computed per allocation cell with floor rounding on both
	// sides. Because buyerPrice ≥ sellerPrice holds cell-wise, the floored
	// user payment of every cell covers its floored provider payment, so
	// budget balance is *exact* in micro-units. User IR is also exact
	// (⌊v·q⌋ summed ≥ ⌊p_b·q⌋ summed for v ≥ p_b). Provider IR can lose at
	// most one micro-unit per allocated cell to rounding when a provider's
	// cost ties the seller price — economically zero, and documented in the
	// tests.
	for u := 0; u < n; u++ {
		for j := 0; j < m; j++ {
			q := out.Alloc.At(u, j)
			if q == 0 {
				continue
			}
			out.Pay.ByUser[u] = out.Pay.ByUser[u].SatAdd(buyerPrice.MulFrac(q))
			out.Pay.ToProvider[j] = out.Pay.ToProvider[j].SatAdd(sellerPrice.MulFrac(q))
		}
	}
	return out, nil
}

// Capacities extracts the capacity vector declared in the provider bids
// (used for feasibility checks).
func Capacities(bids auction.BidVector) []fixed.Fixed {
	caps := make([]fixed.Fixed, len(bids.Providers))
	for j, b := range bids.Providers {
		if b.Validate() == nil {
			caps[j] = b.Capacity
		}
	}
	return caps
}
