package auction

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"

	"distauction/internal/fixed"
	"distauction/internal/wire"
)

// ErrShape reports dimension mismatches between allocations, payments and
// bid vectors.
var ErrShape = errors.New("auction: dimension mismatch")

// Allocation assigns bandwidth units of providers to users: Units is a dense
// row-major n×m matrix where entry (u, p) is the bandwidth user u receives
// at provider p.
type Allocation struct {
	NumUsers     int
	NumProviders int
	Units        []fixed.Fixed
}

// NewAllocation returns an empty n×m allocation.
func NewAllocation(numUsers, numProviders int) Allocation {
	return Allocation{
		NumUsers:     numUsers,
		NumProviders: numProviders,
		Units:        make([]fixed.Fixed, numUsers*numProviders),
	}
}

// At returns the units allocated to user u at provider p.
func (a Allocation) At(u, p int) fixed.Fixed { return a.Units[u*a.NumProviders+p] }

// Set stores the units allocated to user u at provider p.
func (a Allocation) Set(u, p int, v fixed.Fixed) { a.Units[u*a.NumProviders+p] = v }

// Add increases the allocation of user u at provider p, saturating.
func (a Allocation) Add(u, p int, v fixed.Fixed) {
	i := u*a.NumProviders + p
	a.Units[i] = a.Units[i].SatAdd(v)
}

// UserTotal returns the total units user u receives across providers.
func (a Allocation) UserTotal(u int) fixed.Fixed {
	var total fixed.Fixed
	for p := 0; p < a.NumProviders; p++ {
		total = total.SatAdd(a.At(u, p))
	}
	return total
}

// ProviderLoad returns the total units provider p supplies across users.
func (a Allocation) ProviderLoad(p int) fixed.Fixed {
	var total fixed.Fixed
	for u := 0; u < a.NumUsers; u++ {
		total = total.SatAdd(a.At(u, p))
	}
	return total
}

// CheckFeasible verifies the allocation is non-negative and respects the
// given provider capacities (the feasibility requirement of §3.1).
func (a Allocation) CheckFeasible(capacities []fixed.Fixed) error {
	if len(capacities) != a.NumProviders {
		return fmt.Errorf("%w: %d capacities for %d providers", ErrShape, len(capacities), a.NumProviders)
	}
	for _, u := range a.Units {
		if u < 0 {
			return errors.New("auction: negative allocation entry")
		}
	}
	for p := 0; p < a.NumProviders; p++ {
		if load := a.ProviderLoad(p); load > capacities[p] {
			return fmt.Errorf("auction: provider %d over capacity: %v > %v", p, load, capacities[p])
		}
	}
	return nil
}

// Payments records the currency flow of an outcome: what each user pays and
// what each provider receives.
type Payments struct {
	ByUser     []fixed.Fixed
	ToProvider []fixed.Fixed
}

// NewPayments returns zeroed payments for n users and m providers.
func NewPayments(numUsers, numProviders int) Payments {
	return Payments{
		ByUser:     make([]fixed.Fixed, numUsers),
		ToProvider: make([]fixed.Fixed, numProviders),
	}
}

// TotalPaid returns the sum paid by users.
func (p Payments) TotalPaid() fixed.Fixed {
	var t fixed.Fixed
	for _, v := range p.ByUser {
		t = t.SatAdd(v)
	}
	return t
}

// TotalReceived returns the sum received by providers.
func (p Payments) TotalReceived() fixed.Fixed {
	var t fixed.Fixed
	for _, v := range p.ToProvider {
		t = t.SatAdd(v)
	}
	return t
}

// BudgetBalanced reports whether user payments cover provider payments
// (the budget-balance property of §3.1).
func (p Payments) BudgetBalanced() bool {
	return p.TotalPaid() >= p.TotalReceived()
}

// Outcome is the pair (x, ~p) produced by the auctioneer.
type Outcome struct {
	Alloc Allocation
	Pay   Payments
}

// Validate checks internal dimension consistency and sign constraints.
func (o Outcome) Validate() error {
	if len(o.Alloc.Units) != o.Alloc.NumUsers*o.Alloc.NumProviders {
		return fmt.Errorf("%w: allocation matrix size", ErrShape)
	}
	if len(o.Pay.ByUser) != o.Alloc.NumUsers || len(o.Pay.ToProvider) != o.Alloc.NumProviders {
		return fmt.Errorf("%w: payments vs allocation", ErrShape)
	}
	for _, v := range o.Pay.ByUser {
		if v < 0 {
			return errors.New("auction: negative user payment")
		}
	}
	for _, v := range o.Pay.ToProvider {
		if v < 0 {
			return errors.New("auction: negative provider payment")
		}
	}
	return nil
}

// Encode returns the canonical encoding of the outcome.
func (o Outcome) Encode() []byte {
	enc := wire.NewEncoder(16 + 8*len(o.Alloc.Units) + 8*(len(o.Pay.ByUser)+len(o.Pay.ToProvider)))
	enc.Uvarint(uint64(o.Alloc.NumUsers))
	enc.Uvarint(uint64(o.Alloc.NumProviders))
	enc.FixedSlice(o.Alloc.Units)
	enc.FixedSlice(o.Pay.ByUser)
	enc.FixedSlice(o.Pay.ToProvider)
	return enc.Buffer()
}

// DecodeOutcome parses a canonical outcome and validates its shape. The
// header fixes what the three vectors must hold — NumUsers×NumProviders
// units, NumUsers and NumProviders payments — so a header out of range, a
// units prefix that disagrees with it, or an input too short to carry that
// many values is rejected before any storage exists; the three vectors are
// then carved out of one allocation and filled in a single pass. Malformed
// input is reported as the bare wire error or ErrShape: refusing a hostile
// message allocates nothing, and both callers name the operation themselves.
func DecodeOutcome(raw []byte) (Outcome, error) {
	d := wire.NewDecoder(raw)
	nu, np := d.Uvarint(), d.Uvarint()
	peek := *d // the units prefix, read ahead of the storage it sizes
	cells := peek.Uvarint()
	if err := peek.Err(); err != nil {
		return Outcome{}, err
	}
	if nu > math.MaxInt32 || np > math.MaxInt32 || cells != nu*np {
		return Outcome{}, ErrShape
	}
	// Every value and both payment prefixes take at least one byte.
	if cells+nu+np+2 > uint64(peek.Remaining()) {
		return Outcome{}, wire.ErrTruncated
	}
	vals := make([]fixed.Fixed, cells+nu+np)
	units, byUser, toProvider := vals[:cells:cells], vals[cells:cells+nu:cells+nu], vals[cells+nu:]
	full := d.FixedSliceInto(units) == len(units) &&
		d.FixedSliceInto(byUser) == len(byUser) &&
		d.FixedSliceInto(toProvider) == len(toProvider)
	if !full && d.Err() == nil {
		return Outcome{}, ErrShape
	}
	if err := d.Finish(); err != nil {
		return Outcome{}, err
	}
	o := Outcome{
		Alloc: Allocation{NumUsers: int(nu), NumProviders: int(np), Units: units},
		Pay:   Payments{ByUser: byUser, ToProvider: toProvider},
	}
	if err := o.Validate(); err != nil {
		return Outcome{}, err
	}
	return o, nil
}

// Digest returns the SHA-256 of the canonical encoding; providers
// cross-validate redundant computations by comparing digests.
func (o Outcome) Digest() [sha256.Size]byte {
	return sha256.Sum256(o.Encode())
}

// WelfareStandard is the standard-auction social welfare: the total value
// users attribute to the allocation (§3.1).
func WelfareStandard(users []UserBid, a Allocation) fixed.Fixed {
	if len(users) != a.NumUsers {
		return 0
	}
	var w fixed.Fixed
	for u, bid := range users {
		w = w.SatAdd(bid.Value.MulFrac(a.UserTotal(u)))
	}
	return w
}

// WelfareDouble is the double-auction social welfare: user value minus
// provider cost of the allocation (§3.1).
func WelfareDouble(users []UserBid, providers []ProviderBid, a Allocation) fixed.Fixed {
	if len(users) != a.NumUsers || len(providers) != a.NumProviders {
		return 0
	}
	w := WelfareStandard(users, a)
	for p, bid := range providers {
		w = w.SatSub(bid.Cost.MulFrac(a.ProviderLoad(p)))
	}
	return w
}

// UserUtility is user u's utility under its true valuation: value of the
// allocation minus payment (§3.3). A ⊥ outcome has utility zero by
// definition; callers model that by not calling this.
func UserUtility(truth UserBid, u int, o Outcome) fixed.Fixed {
	value := truth.Value.MulFrac(o.Alloc.UserTotal(u))
	return value.SatSub(o.Pay.ByUser[u])
}

// ProviderUtility is provider p's utility under its true cost: payment
// received minus cost of supplied units (§3.3).
func ProviderUtility(truth ProviderBid, p int, o Outcome) fixed.Fixed {
	cost := truth.Cost.MulFrac(o.Alloc.ProviderLoad(p))
	return o.Pay.ToProvider[p].SatSub(cost)
}
