// Package standardauction implements the standard-auction allocation
// algorithm of §5.2.2, in the style of Zhang, Wu, Li and Lau (INFOCOM 2015):
// a randomized (1−ε)-approximation of the welfare-maximising single-provider
// assignment, combined with VCG payments for truthfulness in expectation.
//
// Problem: each user i demands dᵢ units of bandwidth, valued at vᵢ per
// unit, and must be served entirely by ONE provider (or not at all);
// provider j has capacity Cⱼ. Maximising Σ vᵢ·dᵢ over served users is the
// multiple-knapsack problem — NP-hard, which is why the paper trades
// optimality for a (1−ε) approximation whose work grows with (1/ε)².
//
// Allocation (Task 1 of Algorithm 1) = greedy seed + seeded randomized
// local search: random candidate users are swapped into random providers,
// evicting cheaper user sets when that strictly improves welfare. All
// randomness comes from a prng.SplitMix64 seeded by the common coin, so
// every provider replays the identical allocation. Each provider's users
// are kept in a list ordered by total value, so one search iteration costs
// O(1) when the drawn user is already served and otherwise a walk of the
// evicted prefix plus an insertion into a list of about n/m users — never
// a pass over all n.
//
// Payments (Task 2) are VCG: user i pays the externality it imposes,
// W(N∖{i}) − (W(N) − vᵢdᵢ), which requires a fresh solve without i — the
// computationally dominant part, embarrassingly parallel across users, and
// exactly what the paper's framework distributes across provider groups.
//
// The paper's algorithm runs in O(m·n⁹·(1/ε)²) under smoothed analysis; this
// reproduction keeps the structure (randomized search with (1/ε)² effort,
// superlinear growth in n, per-user re-solves) with the exponent scaled so
// experiments terminate on one machine. See DESIGN.md §2 and EXPERIMENTS.md.
package standardauction

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/prng"
)

// Unassigned marks a user not served by any provider.
const Unassigned = -1

// Params configures the mechanism.
type Params struct {
	// Capacities is the bandwidth capacity of each provider (providers do
	// not bid in a standard auction; capacities are deployment facts).
	Capacities []fixed.Fixed
	// InvEpsilon is ⌈1/ε⌉ ≥ 1: the approximation effort. Local-search work
	// scales with its square, mirroring the paper's (1/ε)² factor.
	InvEpsilon int
	// IterFactor scales the iteration count (default 1). Benchmarks use it
	// to calibrate compute cost against the paper's testbed.
	IterFactor int
	// Exact switches to exhaustive search (small instances only; used by
	// tests to check the approximation ratio and exact-VCG truthfulness).
	Exact bool
	// ModelDelay adds a virtual compute delay to every allocation solve
	// (including the per-user VCG re-solves). The paper's algorithm costs
	// O(m·n⁹·(1/ε)²) CPU-seconds and its testbed pinned one CPU per
	// provider; on hosts with fewer cores than providers the redundant
	// simulation would serialize and mask the parallel speedup, so the
	// evaluation harness models the full-scale compute time as idle time.
	// ModelDelay never affects results — only wall-clock. Zero disables it.
	ModelDelay time.Duration
}

func (p Params) withDefaults() Params {
	if p.InvEpsilon < 1 {
		p.InvEpsilon = 10
	}
	if p.IterFactor < 1 {
		p.IterFactor = 1
	}
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if len(p.Capacities) == 0 {
		return errors.New("standardauction: no providers")
	}
	for j, c := range p.Capacities {
		if c < 0 {
			return fmt.Errorf("standardauction: negative capacity for provider %d", j)
		}
	}
	if p.Exact && len(p.Capacities) > 4 {
		return errors.New("standardauction: exact mode limited to 4 providers")
	}
	return nil
}

// Assignment maps each user to a provider index or Unassigned.
type Assignment []int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Welfare returns the social welfare of an assignment: the total value of
// served demand (§3.1, standard auction).
func Welfare(users []auction.UserBid, a Assignment) fixed.Fixed {
	var w fixed.Fixed
	for i, p := range a {
		if p != Unassigned {
			w = w.SatAdd(users[i].Total())
		}
	}
	return w
}

// eligible reports whether user i participates (valid, non-neutral).
func eligible(b auction.UserBid) bool {
	return b.Validate() == nil && !b.IsNeutral()
}

// SolveAllocation computes the (1−ε)-approximate assignment (Task 1 of
// Algorithm 1). It is deterministic in (users, params, seed).
func SolveAllocation(users []auction.UserBid, params Params, seed uint64) (Assignment, error) {
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.ModelDelay > 0 {
		time.Sleep(params.ModelDelay)
	}
	if params.Exact {
		a, _ := solveExact(users, params.Capacities, -1)
		return a, nil
	}
	assign := make(Assignment, len(users))
	sc := scratchPool.Get().(*scratch)
	copy(assign, sc.solve(users, params, seed, -1))
	scratchPool.Put(sc)
	return assign, nil
}

// scratch is the approximate solver's working set — the assignment being
// built, remaining capacities, the eligible order, every user's Total() and
// each provider's member list — recycled across solves. Only indices and
// fixed-point values live here, never caller data, so a recycled scratch
// carries nothing between solves.
type scratch struct {
	assign  Assignment
	remCap  []fixed.Fixed
	order   []int
	totals  []fixed.Fixed
	members [][]int
}

// Without scratchPool, BenchmarkFullSolve/fig5 reads 472 allocs/op, not 5;
// its ns/op moves inside the runs' spread (EXPERIMENTS.md).
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// solve runs the greedy seed and the local search with user skip (or -1
// for none) excluded, exactly as if skip had bid neutral, and returns the
// assignment. The result lives in sc and is overwritten by the next solve.
func (sc *scratch) solve(users []auction.UserBid, params Params, seed uint64, skip int) Assignment {
	n, m := len(users), len(params.Capacities)
	sc.assign = slices.Grow(sc.assign[:0], n)[:n]
	sc.totals = slices.Grow(sc.totals[:0], n)[:n]
	sc.remCap = append(sc.remCap[:0], params.Capacities...)
	sc.members = slices.Grow(sc.members[:0], m)[:m]
	for j := range sc.members {
		sc.members[j] = sc.members[j][:0]
	}
	assign, remCap, totals := sc.assign, sc.remCap, sc.totals

	// Greedy seed: users by per-unit value descending (ties by index),
	// placed into the provider with the most remaining capacity.
	order := sc.order[:0]
	for i, b := range users {
		assign[i] = Unassigned
		if i != skip && eligible(b) {
			order = append(order, i)
			totals[i] = b.Total()
		}
	}
	sc.order = order
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(users[b].Value, users[a].Value), cmp.Compare(a, b))
	})
	for _, i := range order {
		best, bestCap := Unassigned, fixed.Fixed(-1)
		for j := 0; j < m; j++ {
			if remCap[j] >= users[i].Demand && remCap[j] > bestCap {
				best, bestCap = j, remCap[j]
			}
		}
		if best != Unassigned {
			sc.place(i, best, users[i].Demand)
		}
	}

	// Randomized local search: the effort mirrors the paper's (1/ε)² factor
	// with linear growth in n per solve (so a full auction with its n VCG
	// re-solves grows superlinearly, reproducing Figure 5's shape).
	iters := params.IterFactor * len(order) * params.InvEpsilon * params.InvEpsilon
	rng := prng.New(seed)
	for it := 0; it < iters; it++ {
		i := order[rng.Intn(len(order))]
		j := rng.Intn(m)
		if assign[i] != Unassigned {
			// Moving an assigned user does not change welfare by itself;
			// the improving move is swapping an unassigned user in.
			continue
		}
		need := users[i].Demand - remCap[j]
		if need <= 0 {
			sc.place(i, j, users[i].Demand)
			continue
		}
		// The cheapest set of users at j whose eviction frees enough
		// capacity is a prefix of j's member list, which is kept in
		// ascending total-value order.
		members := sc.members[j]
		var freed, lost fixed.Fixed
		cut := 0
		for _, u := range members {
			if freed >= need {
				break
			}
			freed = freed.SatAdd(users[u].Demand)
			lost = lost.SatAdd(totals[u])
			cut++
		}
		if freed < need || lost >= totals[i] {
			continue // infeasible or not improving
		}
		for _, u := range members[:cut] {
			assign[u] = Unassigned
		}
		sc.members[j] = members[:copy(members, members[cut:])]
		remCap[j] += freed
		sc.place(i, j, users[i].Demand)
	}
	return assign
}

// place assigns user i, of the given demand, to provider j and inserts it
// into j's member list, which stays in (total, index) ascending order: the
// order the eviction walk takes users in.
func (sc *scratch) place(i, j int, demand fixed.Fixed) {
	sc.assign[i] = j
	sc.remCap[j] -= demand
	members, totals := sc.members[j], sc.totals
	at, _ := slices.BinarySearchFunc(members, i, func(a, b int) int {
		return cmp.Or(cmp.Compare(totals[a], totals[b]), cmp.Compare(a, b))
	})
	sc.members[j] = slices.Insert(members, at, i)
}

// paymentSeed derives the deterministic seed for the counterfactual solve
// without user i. Every provider group must obtain the same seed for the
// same user, no matter which group computes it.
func paymentSeed(seed uint64, i int) uint64 {
	return prng.New(seed).Fork(uint64(i) + 1).Uint64()
}

// Payment computes user i's VCG payment given the chosen assignment
// (Task 2 of Algorithm 1). Payments are clamped to [0, vᵢdᵢ]: the
// approximation can otherwise leave a VCG payment slightly outside the
// individually-rational range. The assignment must cover every user
// (auction.ErrShape otherwise).
func Payment(users []auction.UserBid, params Params, seed uint64, assign Assignment, i int) (fixed.Fixed, error) {
	params = params.withDefaults()
	if i < 0 || i >= len(users) {
		return 0, fmt.Errorf("standardauction: payment for unknown user %d", i)
	}
	if len(assign) != len(users) {
		return 0, auction.ErrShape
	}
	// The compute model charges one counterfactual solve per user — the
	// paper's algorithm prices every user, and its groups split exactly n/c
	// payments each. The sleep lives here (not in the inner solve) so it is
	// charged once per payment regardless of early exits.
	if params.ModelDelay > 0 {
		time.Sleep(params.ModelDelay)
	}
	if assign[i] == Unassigned {
		return 0, nil
	}
	if err := params.Validate(); err != nil {
		return 0, err
	}
	othersWelfare := Welfare(users, assign).SatSub(users[i].Total())

	// The counterfactual solve excludes user i by index: a neutral bid in
	// its place would be ineligible, so the solve is the same.
	var without fixed.Fixed
	if params.Exact {
		a, _ := solveExact(users, params.Capacities, i)
		without = Welfare(users, a)
	} else {
		sc := scratchPool.Get().(*scratch)
		without = Welfare(users, sc.solve(users, params, paymentSeed(seed, i), i))
		scratchPool.Put(sc)
	}
	return fixed.Clamp(without.SatSub(othersWelfare), 0, users[i].Total()), nil
}

// BuildOutcome expands an assignment and per-user payments into the
// canonical auction outcome. Payments to providers are zero: in the
// standard auction providers do not bid and revenue distribution is outside
// the mechanism (the deployment's settlement layer routes user payments to
// the providers that served them; see the ledger package).
func BuildOutcome(users []auction.UserBid, params Params, assign Assignment, pays []fixed.Fixed) (auction.Outcome, error) {
	params = params.withDefaults()
	n, m := len(users), len(params.Capacities)
	if len(assign) != n || len(pays) != n {
		return auction.Outcome{}, auction.ErrShape
	}
	out := auction.Outcome{
		Alloc: auction.NewAllocation(n, m),
		Pay:   auction.NewPayments(n, m),
	}
	for i, j := range assign {
		if j == Unassigned {
			continue
		}
		if j < 0 || j >= m {
			return auction.Outcome{}, fmt.Errorf("standardauction: assignment of user %d out of range", i)
		}
		out.Alloc.Set(i, j, users[i].Demand)
		out.Pay.ByUser[i] = pays[i]
	}
	if err := out.Alloc.CheckFeasible(params.Capacities); err != nil {
		return auction.Outcome{}, err
	}
	return out, nil
}

// Solve runs the full mechanism serially: allocation plus every user's VCG
// payment. The distributed framework splits exactly this work across
// provider groups; Solve is the centralized baseline of Figure 5 (p=1).
func Solve(users []auction.UserBid, params Params, seed uint64) (auction.Outcome, error) {
	assign, err := SolveAllocation(users, params, seed)
	if err != nil {
		return auction.Outcome{}, err
	}
	pays := make([]fixed.Fixed, len(users))
	for i := range users {
		pays[i], err = Payment(users, params, seed, assign, i)
		if err != nil {
			return auction.Outcome{}, err
		}
	}
	return BuildOutcome(users, params, assign, pays)
}

// solveExact exhaustively maximises welfare with user skip (or -1 for none)
// excluded. Exponential; tests only.
func solveExact(users []auction.UserBid, caps []fixed.Fixed, skip int) (Assignment, fixed.Fixed) {
	n, m := len(users), len(caps)
	assign := make(Assignment, n)
	best := make(Assignment, n)
	for i := range assign {
		assign[i] = Unassigned
		best[i] = Unassigned
	}
	remCap := append([]fixed.Fixed(nil), caps...)
	var bestW, curW fixed.Fixed

	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if curW > bestW {
				bestW = curW
				copy(best, assign)
			}
			return
		}
		if i == skip || !eligible(users[i]) {
			assign[i] = Unassigned
			rec(i + 1)
			return
		}
		for j := 0; j < m; j++ {
			if remCap[j] >= users[i].Demand {
				assign[i] = j
				remCap[j] -= users[i].Demand
				curW = curW.SatAdd(users[i].Total())
				rec(i + 1)
				curW = curW.SatSub(users[i].Total())
				remCap[j] += users[i].Demand
			}
		}
		assign[i] = Unassigned
		rec(i + 1)
	}
	rec(0)
	return best, bestW
}
