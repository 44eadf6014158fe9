package standardauction

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/prng"
)

// refSolveAllocation is the approximate branch of SolveAllocation as it was
// before the per-provider member lists: every local-search move scans the
// whole assignment for the users at the target provider and sorts them by
// (total, index). Both sorts are over sort.Slice with total-order
// comparators (ties broken by user index), so any sort produces the same
// permutation and, from it, the same assignment.
func refSolveAllocation(users []auction.UserBid, params Params, seed uint64) Assignment {
	params = params.withDefaults()
	n, m := len(users), len(params.Capacities)
	assign := make(Assignment, n)
	remCap := append([]fixed.Fixed(nil), params.Capacities...)
	order := make([]int, 0, n)
	for i, b := range users {
		assign[i] = Unassigned
		if eligible(b) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := users[order[a]].Value, users[order[b]].Value
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	for _, i := range order {
		best, bestCap := Unassigned, fixed.Fixed(-1)
		for j := 0; j < m; j++ {
			if remCap[j] >= users[i].Demand && remCap[j] > bestCap {
				best, bestCap = j, remCap[j]
			}
		}
		if best != Unassigned {
			assign[i] = best
			remCap[best] -= users[i].Demand
		}
	}
	if len(order) == 0 {
		return assign
	}
	iters := params.IterFactor * len(order) * params.InvEpsilon * params.InvEpsilon
	rng := prng.New(seed)
	var evict []int
	for it := 0; it < iters; it++ {
		i := order[rng.Intn(len(order))]
		j := rng.Intn(m)
		if assign[i] == j || assign[i] != Unassigned {
			continue
		}
		need := users[i].Demand - remCap[j]
		if need <= 0 {
			assign[i] = j
			remCap[j] -= users[i].Demand
			continue
		}
		evict = evict[:0]
		for u := range assign {
			if assign[u] == j {
				evict = append(evict, u)
			}
		}
		sort.Slice(evict, func(a, b int) bool {
			ta, tb := users[evict[a]].Total(), users[evict[b]].Total()
			if ta != tb {
				return ta < tb
			}
			return evict[a] < evict[b]
		})
		var freed, lost fixed.Fixed
		cut := 0
		for _, u := range evict {
			if freed >= need {
				break
			}
			freed = freed.SatAdd(users[u].Demand)
			lost = lost.SatAdd(users[u].Total())
			cut++
		}
		if freed < need || lost >= users[i].Total() {
			continue
		}
		for _, u := range evict[:cut] {
			assign[u] = Unassigned
		}
		remCap[j] = remCap[j] + freed - users[i].Demand
		assign[i] = j
	}
	return assign
}

// refPayment is Payment over the reference solve, excluding user i the way
// it first did: by copying the bids with a neutral bid in i's place.
func refPayment(users []auction.UserBid, params Params, seed uint64, assign Assignment, i int) fixed.Fixed {
	if assign[i] == Unassigned {
		return 0
	}
	othersWelfare := Welfare(users, assign).SatSub(users[i].Total())
	without := append([]auction.UserBid(nil), users...)
	without[i] = auction.NeutralUserBid()
	counterfactual := refSolveAllocation(without, params, paymentSeed(seed, i))
	return fixed.Clamp(Welfare(without, counterfactual).SatSub(othersWelfare), 0, users[i].Total())
}

// Capacity kinds of the reference grid.
const (
	capScarce    = iota // half the mean demand share per provider
	capZero             // every even-numbered provider has none
	capOversized        // fixed.Max each: every move fits without eviction
	capKinds
)

// gridInstance builds one instance of the reference grid: n users on m
// providers with capacities of the given kind. With ties, values and
// demands come from a few levels, so many users share a Total() and the
// index tie-break decides the eviction order. With holes, every fifth user
// bids neutral and every seventh bids invalid.
func gridInstance(seed uint64, n, m, capKind int, ties, holes bool) ([]auction.UserBid, Params) {
	users, params := randomInstance(seed, n, m, 0.5)
	for i := range users {
		if ties {
			users[i].Value = fixed.MustFloat(0.75) + fixed.Fixed(i%3)*fixed.MustFloat(0.25)
			users[i].Demand = fixed.MustFloat(0.25) + fixed.Fixed(i%2)*fixed.MustFloat(0.25)
		}
		switch {
		case holes && i%5 == 4:
			users[i] = auction.NeutralUserBid()
		case holes && i%7 == 6:
			users[i].Value = -users[i].Value
		}
	}
	for j := range params.Capacities {
		switch capKind {
		case capZero:
			if j%2 == 0 {
				params.Capacities[j] = 0
			}
		case capOversized:
			params.Capacities[j] = fixed.Max
		}
	}
	return users, params
}

// checkAgainstReference fails t unless SolveAllocation and, for every
// stride-th user, Payment agree with the reference on the instance.
func checkAgainstReference(t *testing.T, users []auction.UserBid, params Params, seed uint64, stride int) {
	t.Helper()
	assign, err := SolveAllocation(users, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := refSolveAllocation(users, params, seed); !reflect.DeepEqual(assign, want) {
		t.Fatalf("assignment %v, reference %v", assign, want)
	}
	for i := int(seed) % stride; i < len(users); i += stride {
		pay, err := Payment(users, params, seed, assign, i)
		if err != nil {
			t.Fatal(err)
		}
		if want := refPayment(users, params, seed, assign, i); pay != want {
			t.Fatalf("user %d pays %v, reference %v", i, pay, want)
		}
	}
}

// TestSolveAllocationMatchesReference: over a grid of sizes, efforts,
// capacity kinds, value ties and neutral or invalid users, the assignment
// and the users' VCG payments are bit-identical to the scan-and-sort
// reference's. Every user is priced up to n = 60; at n = 200 every
// fortieth is, because each reference payment there scans and sorts
// through up to 15000 moves.
func TestSolveAllocationMatchesReference(t *testing.T) {
	var seed uint64
	for _, n := range []int{0, 1, 2, 7, 60, 200} {
		stride := 1
		if n > 60 {
			stride = 40
		}
		for _, m := range []int{1, 2, 3, 8} {
			for _, invEps := range []int{1, 2, 5} {
				for _, iterFactor := range []int{1, 3} {
					for capKind := 0; capKind < capKinds; capKind++ {
						for variant := 0; variant < 4; variant++ {
							seed++
							ties, holes := variant&1 != 0, variant&2 != 0
							users, params := gridInstance(seed, n, m, capKind, ties, holes)
							params.InvEpsilon, params.IterFactor = invEps, iterFactor
							name := fmt.Sprintf("n=%d/m=%d/inveps=%d/iter=%d/caps=%d/ties=%v/holes=%v",
								n, m, invEps, iterFactor, capKind, ties, holes)
							t.Run(name, func(t *testing.T) { checkAgainstReference(t, users, params, seed, stride) })
						}
					}
				}
			}
		}
	}
}

// FuzzSolveAllocation checks SolveAllocation and Payment against the
// reference on arbitrary small instances. Each pair of data bytes is one
// user: a value level and a demand level, with level 0 of either making the
// bid neutral or invalid. Capacities are drawn from the seed.
func FuzzSolveAllocation(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 3, 3}, uint64(1), uint8(2), uint8(2))
	f.Add([]byte{5, 1, 5, 1, 5, 1, 5, 1, 0, 0, 0, 3, 9, 9}, uint64(7), uint8(3), uint8(5))
	f.Add([]byte{200, 17, 3, 250, 64, 64, 64, 64, 1, 255}, uint64(42), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, m, invEps uint8) {
		n := min(len(data)/2, 40)
		users := make([]auction.UserBid, n)
		for i := range users {
			v, d := fixed.Fixed(data[2*i]), fixed.Fixed(data[2*i+1])
			switch {
			case v == 0 && d == 0:
				users[i] = auction.NeutralUserBid()
			case v == 0:
				users[i] = auction.UserBid{Value: -fixed.One, Demand: d * fixed.One / 16}
			default:
				users[i] = auction.UserBid{Value: v * fixed.One / 16, Demand: d * fixed.One / 16}
			}
		}
		rng := prng.New(seed)
		params := Params{Capacities: make([]fixed.Fixed, 1+int(m%8)), InvEpsilon: 1 + int(invEps%5)}
		for j := range params.Capacities {
			params.Capacities[j] = rng.FixedRange(0, fixed.MustFloat(float64(n)/4+1))
		}
		checkAgainstReference(t, users, params, seed, 1)
	})
}
