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

// errNegativePayment is DecodeOutcome's refusal of a payment below zero: a
// sentinel, so refusing it allocates nothing beyond the frame's storage.
var errNegativePayment = errors.New("auction: negative payment")

// Encode returns the canonical encoding of the outcome, the frame every
// provider sends every bidder: NumUsers and NumProviders, the unit matrix as
// a row-major bitmap of its n·m cells followed by its non-zero values
// (wire.Encoder.SparseFixeds), then ByUser and ToProvider as length-prefixed
// slices. Zero cells, at least 7 of every 8 in a wide double auction, cost a
// bit each. An outcome whose matrix is not n·m cells (Validate refuses it)
// has no frame: Encode writes its two counts alone, which DecodeOutcome
// refuses.
func (o Outcome) Encode() []byte {
	a, pay := o.Alloc, o.Pay
	head := wire.UvarintSize(uint64(a.NumUsers)) + wire.UvarintSize(uint64(a.NumProviders))
	if len(a.Units) != a.NumUsers*a.NumProviders {
		enc := wire.NewEncoder(head)
		enc.Uvarint(uint64(a.NumUsers))
		enc.Uvarint(uint64(a.NumProviders))
		return enc.Buffer()
	}
	enc := wire.NewEncoder(head + wire.SparseFixedsSize(a.Units) +
		wire.FixedSliceSize(pay.ByUser) + wire.FixedSliceSize(pay.ToProvider))
	enc.Uvarint(uint64(a.NumUsers))
	enc.Uvarint(uint64(a.NumProviders))
	enc.SparseFixeds(a.Units)
	enc.FixedSlice(pay.ByUser)
	enc.FixedSlice(pay.ToProvider)
	return enc.Buffer()
}

// DecodeOutcome parses an outcome frame (see Encode) and validates it. The
// header and the bitmap fix what the frame must hold — n·m cells, as many
// unit values as set bits, n and m payments — so a count above MaxInt32, a
// bitmap the input cannot hold or with a padding bit set, or fewer bytes
// left than the set bits and payments need, is refused first. The body is
// then checked without storing it (wire.Decoder.SkipFixeds): a malformed
// value, a zero under a set bit, a payment count other than the header's,
// trailing bytes and a negative payment are refused there. Only a frame
// that passes has storage: units, user payments and provider payments are
// carved out of one allocation and filled in a second pass, which cannot
// fail. Every refusal is a bare wire error, ErrShape or errNegativePayment,
// so a refusal allocates nothing; both callers name the operation
// themselves.
func DecodeOutcome(raw []byte) (Outcome, error) {
	d := wire.NewDecoder(raw)
	nu, np := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return Outcome{}, err
	}
	if nu > math.MaxInt32 || np > math.MaxInt32 {
		return Outcome{}, ErrShape
	}
	cells := nu * np
	bitmap, set := d.Bitmap(cells)
	if err := d.Err(); err != nil {
		return Outcome{}, err
	}
	// Every value and both payment prefixes take at least one byte.
	if uint64(set)+nu+np+2 > uint64(d.Remaining()) {
		return Outcome{}, wire.ErrTruncated
	}
	body := *d // where the fill rereads the body
	zero, _ := d.SkipFixeds(set)
	if d.Uvarint() != nu && d.Err() == nil {
		return Outcome{}, ErrShape
	}
	_, negUser := d.SkipFixeds(int(nu))
	if d.Uvarint() != np && d.Err() == nil {
		return Outcome{}, ErrShape
	}
	_, negProvider := d.SkipFixeds(int(np))
	switch {
	case d.Err() != nil:
		return Outcome{}, d.Err()
	case zero:
		return Outcome{}, wire.ErrCorrupt
	case d.Remaining() != 0:
		return Outcome{}, wire.ErrTrailing
	case negUser || negProvider:
		return Outcome{}, errNegativePayment
	}
	vals := make([]fixed.Fixed, cells+nu+np)
	units, byUser, toProvider := vals[:cells:cells], vals[cells:cells+nu:cells+nu], vals[cells+nu:]
	d = &body
	d.SparseFixedsInto(bitmap, units)
	d.FixedSliceInto(byUser)
	d.FixedSliceInto(toProvider)
	// The check pass has read and accepted every byte the fill reads, so
	// this cannot happen; it keeps a fill that disagreed with the check
	// from handing out a half-filled outcome.
	if err := d.Err(); err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Alloc: Allocation{NumUsers: int(nu), NumProviders: int(np), Units: units},
		Pay:   Payments{ByUser: byUser, ToProvider: toProvider},
	}, nil
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
