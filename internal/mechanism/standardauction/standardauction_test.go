package standardauction

import (
	"errors"
	"testing"
	"testing/quick"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/prng"
)

func u(v, d float64) auction.UserBid {
	return auction.UserBid{Value: fixed.MustFloat(v), Demand: fixed.MustFloat(d)}
}

func caps(cs ...float64) []fixed.Fixed {
	out := make([]fixed.Fixed, len(cs))
	for i, c := range cs {
		out[i] = fixed.MustFloat(c)
	}
	return out
}

// randomInstance mirrors the paper's §6.3 workload: values U[0.75,1.25],
// demands U(0,1], capacities scaled to a fraction of total demand.
func randomInstance(seed uint64, n, m int, capFrac float64) ([]auction.UserBid, Params) {
	rng := prng.New(seed)
	users := make([]auction.UserBid, n)
	var total fixed.Fixed
	for i := range users {
		users[i] = auction.UserBid{
			Value:  rng.FixedRange(fixed.MustFloat(0.75), fixed.MustFloat(1.25)),
			Demand: rng.FixedRange(1, fixed.One) + 1,
		}
		total = total.SatAdd(users[i].Demand)
	}
	cs := make([]fixed.Fixed, m)
	for j := range cs {
		share, _ := total.DivInt(int64(m))
		cs[j] = fixed.Max2(share.MulFrac(fixed.MustFloat(capFrac)), 1)
	}
	return users, Params{Capacities: cs, InvEpsilon: 5}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err == nil {
		t.Error("no providers must be invalid")
	}
	if err := (Params{Capacities: caps(-1)}).Validate(); err == nil {
		t.Error("negative capacity must be invalid")
	}
	if err := (Params{Capacities: caps(1, 1, 1, 1, 1), Exact: true}).Validate(); err == nil {
		t.Error("exact mode with 5 providers must be invalid")
	}
	if err := (Params{Capacities: caps(1)}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestDeterministicInSeed(t *testing.T) {
	users, params := randomInstance(1, 40, 4, 0.3)
	a, err := SolveAllocation(users, params, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveAllocation(users, params, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at user %d", i)
		}
	}
}

func TestFeasibilityAndDemandIntegrity(t *testing.T) {
	f := func(seed uint64) bool {
		n := 5 + int(seed%30)
		users, params := randomInstance(seed, n, 1+int(seed%5), 0.4)
		assign, err := SolveAllocation(users, params, seed)
		if err != nil {
			return false
		}
		load := make([]fixed.Fixed, len(params.Capacities))
		for i, j := range assign {
			if j == Unassigned {
				continue
			}
			if j < 0 || j >= len(load) {
				return false
			}
			load[j] = load[j].SatAdd(users[i].Demand)
		}
		for j := range load {
			if load[j] > params.Capacities[j] {
				t.Logf("seed %d: provider %d over capacity", seed, j)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLocalSearchBeatsOrMatchesGreedy(t *testing.T) {
	// With zero iterations the solver returns the greedy seed; local search
	// can only improve it (every accepted move strictly raises welfare).
	users, params := randomInstance(3, 50, 4, 0.3)
	greedy := params
	greedy.IterFactor = 1
	greedy.InvEpsilon = 1 // minimal extra work
	gAssign, err := SolveAllocation(users, greedy, 5)
	if err != nil {
		t.Fatal(err)
	}
	strong := params
	strong.InvEpsilon = 12
	sAssign, err := SolveAllocation(users, strong, 5)
	if err != nil {
		t.Fatal(err)
	}
	if Welfare(users, sAssign) < Welfare(users, gAssign) {
		t.Errorf("more search lowered welfare: %v < %v",
			Welfare(users, sAssign), Welfare(users, gAssign))
	}
}

func TestApproximationRatioOnSmallInstances(t *testing.T) {
	// Compare against the exhaustive optimum on instances small enough to
	// brute-force; the (1−ε)-style search should land within 20%.
	for seed := uint64(1); seed <= 20; seed++ {
		users, params := randomInstance(seed, 9, 3, 0.4)
		params.InvEpsilon = 15
		assign, err := SolveAllocation(users, params, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, opt := solveExact(users, params.Capacities, -1)
		got := Welfare(users, assign)
		if opt == 0 {
			continue
		}
		bound := opt.MulFrac(fixed.MustFloat(0.8))
		if got < bound {
			t.Errorf("seed %d: welfare %v below 0.8×OPT (%v, OPT=%v)", seed, got, bound, opt)
		}
	}
}

func TestPaymentsBasics(t *testing.T) {
	users, params := randomInstance(11, 20, 3, 0.3)
	seed := uint64(77)
	assign, err := SolveAllocation(users, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range users {
		pay, err := Payment(users, params, seed, assign, i)
		if err != nil {
			t.Fatal(err)
		}
		if assign[i] == Unassigned && pay != 0 {
			t.Errorf("losing user %d pays %v", i, pay)
		}
		if pay < 0 || pay > users[i].Total() {
			t.Errorf("user %d payment %v outside [0, %v]", i, pay, users[i].Total())
		}
	}
	if _, err := Payment(users, params, seed, assign, -1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestPaymentSeedIndependentOfComputingGroup(t *testing.T) {
	// The counterfactual seed for user i depends only on (coin seed, i):
	// this is what lets different provider groups compute disjoint payment
	// shares and still cross-validate.
	if paymentSeed(5, 3) != paymentSeed(5, 3) {
		t.Error("payment seed not deterministic")
	}
	if paymentSeed(5, 3) == paymentSeed(5, 4) {
		t.Error("payment seeds should differ across users")
	}
	if paymentSeed(5, 3) == paymentSeed(6, 3) {
		t.Error("payment seeds should differ across coin seeds")
	}
}

// Exact-mode VCG is truthful: no user improves utility by any misreport.
func TestVCGTruthfulnessExactMode(t *testing.T) {
	users := []auction.UserBid{u(10, 1), u(8, 1), u(6, 2), u(4, 1)}
	params := Params{Capacities: caps(2, 1), Exact: true}
	seed := uint64(1)

	truthOut, err := Solve(users, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0.5, 2, 3.9, 5, 7, 9, 11, 20}
	for i := range users {
		truthUtil := auction.UserUtility(users[i], i, truthOut)
		for _, lie := range grid {
			lied := append([]auction.UserBid(nil), users...)
			lied[i] = auction.UserBid{Value: fixed.MustFloat(lie), Demand: users[i].Demand}
			out, err := Solve(lied, params, seed)
			if err != nil {
				t.Fatal(err)
			}
			lieUtil := auction.UserUtility(users[i], i, out)
			if lieUtil > truthUtil {
				t.Errorf("user %d gains by bidding %v: %v > %v", i, lie, lieUtil, truthUtil)
			}
		}
	}
}

func TestBuildOutcome(t *testing.T) {
	users := []auction.UserBid{u(2, 1), u(3, 2)}
	params := Params{Capacities: caps(2, 2)}
	assign := Assignment{0, 1}
	pays := []fixed.Fixed{fixed.One, fixed.MustFloat(2)}
	out, err := BuildOutcome(users, params, assign, pays)
	if err != nil {
		t.Fatal(err)
	}
	if out.Alloc.At(0, 0) != fixed.One || out.Alloc.At(1, 1) != fixed.MustFloat(2) {
		t.Error("allocation wrong")
	}
	if out.Pay.ByUser[0] != fixed.One {
		t.Error("payment wrong")
	}
	// Over-capacity assignment must be rejected.
	bad := Assignment{0, 0}
	if _, err := BuildOutcome(users, params, bad, pays); err == nil {
		t.Error("infeasible assignment accepted")
	}
	// Shape mismatch.
	if _, err := BuildOutcome(users, params, assign[:1], pays); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Out-of-range provider.
	if _, err := BuildOutcome(users, params, Assignment{7, Unassigned}, pays); err == nil {
		t.Error("out-of-range provider accepted")
	}
}

func TestSolveEndToEnd(t *testing.T) {
	users, params := randomInstance(21, 15, 3, 0.3)
	out, err := Solve(users, params, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Alloc.CheckFeasible(params.Capacities); err != nil {
		t.Errorf("infeasible outcome: %v", err)
	}
	for i, b := range users {
		if auction.UserUtility(b, i, out) < 0 {
			t.Errorf("user %d IR violated", i)
		}
	}
}

func TestNeutralUsersExcluded(t *testing.T) {
	users := []auction.UserBid{u(5, 1), auction.NeutralUserBid(), {Value: -1, Demand: fixed.One}}
	params := Params{Capacities: caps(10)}
	assign, err := SolveAllocation(users, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != Unassigned || assign[2] != Unassigned {
		t.Error("neutral/invalid user assigned")
	}
	if assign[0] == Unassigned {
		t.Error("valid user not assigned despite ample capacity")
	}
}

func TestExactSolverKnownOptimum(t *testing.T) {
	// Knapsack where greedy-by-value is suboptimal: one provider, cap 3.
	// Greedy takes v=5,d=2 then cannot fit d=2 again; optimum is the pair
	// (4.9, 1.5) + (4.8, 1.5) with welfare 7.35+7.2 > 10.
	users := []auction.UserBid{u(5, 2), u(4.9, 1.5), u(4.8, 1.5)}
	_, opt := solveExact(users, caps(3), -1)
	want := users[1].Total().SatAdd(users[2].Total())
	if opt != want {
		t.Errorf("exact optimum %v, want %v", opt, want)
	}
}

func TestPaymentRejectsMisSizedAssignment(t *testing.T) {
	users, params := randomInstance(4, 6, 2, 0.5)
	assign, err := SolveAllocation(users, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		assign Assignment
		ok     bool
	}{
		{"short", assign[:len(users)-1], false},
		{"long", append(assign.Clone(), 0), false},
		{"exact", assign, true},
	} {
		for i := range users {
			_, err := Payment(users, params, 3, c.assign, i)
			if c.ok && err != nil {
				t.Errorf("%s: user %d: %v", c.name, i, err)
			}
			if !c.ok && !errors.Is(err, auction.ErrShape) {
				t.Errorf("%s: user %d: err %v, want auction.ErrShape", c.name, i, err)
			}
		}
	}
}

// TestSolveAllocationAllocations pins the allocation discipline at the
// shape of the Fig. 5 workload and its solver probe (n = 60 users, m = 8
// providers holding about an eighth of the demand, 1/ε = 5): the solver's
// working set is pooled, so SolveAllocation allocates only the assignment
// it returns and Payment nothing.
func TestSolveAllocationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	users, params := randomInstance(9, 60, 8, 0.125)
	assign, err := SolveAllocation(users, params, 7)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = SolveAllocation(users, params, 7) }); allocs != 1 {
		t.Errorf("SolveAllocation made %v allocations, want 1", allocs)
	}
	for i, j := range assign {
		if j == Unassigned {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = Payment(users, params, 7, assign, i) }); allocs != 0 {
			t.Errorf("Payment for user %d made %v allocations, want 0", i, allocs)
		}
	}
}

func BenchmarkSolveAllocation(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		capFrac float64
	}{{"n=100", 100, 0.25}, {"fig5", 60, 0.125}} {
		b.Run(c.name, func(b *testing.B) {
			users, params := randomInstance(9, c.n, 8, c.capFrac)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveAllocation(users, params, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullSolve(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		capFrac float64
	}{{"n=40", 40, 0.25}, {"fig5", 60, 0.125}} {
		b.Run(c.name, func(b *testing.B) {
			users, params := randomInstance(9, c.n, 8, c.capFrac)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(users, params, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
