package auction

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"distauction/internal/fixed"
	"distauction/internal/wire"
)

// refDecodeOutcome is DecodeOutcome as it stood before the single-pass
// ingest, kept as the reference the ingest must match: three independently
// allocated vectors, one Fixed() per element, shape checked by Validate at
// the end.
func refDecodeOutcome(raw []byte) (Outcome, error) {
	d := wire.NewDecoder(raw)
	var refused error // the old FixedSlice's own count-vs-input check
	slice := func() []fixed.Fixed {
		if refused != nil {
			return nil
		}
		n := d.Uvarint()
		if d.Err() != nil {
			return nil
		}
		if n > uint64(d.Remaining()) {
			refused = wire.ErrTruncated
			return nil
		}
		out := make([]fixed.Fixed, n)
		for i := range out {
			out[i] = d.Fixed()
		}
		if d.Err() != nil {
			return nil
		}
		return out
	}
	var o Outcome
	o.Alloc.NumUsers = int(d.Uvarint())
	o.Alloc.NumProviders = int(d.Uvarint())
	o.Alloc.Units = slice()
	o.Pay.ByUser = slice()
	o.Pay.ToProvider = slice()
	if refused != nil {
		return Outcome{}, refused
	}
	if err := d.Finish(); err != nil {
		return Outcome{}, err
	}
	if err := o.Validate(); err != nil {
		return Outcome{}, err
	}
	return o, nil
}

// errClass names what a decoder objected to.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, wire.ErrTruncated):
		return "truncated"
	case errors.Is(err, wire.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, wire.ErrTrailing):
		return "trailing"
	case errors.Is(err, ErrShape):
		return "shape"
	default:
		return "negative payment"
	}
}

// randomOutcome draws an n×m outcome in which a unit or a payment is
// non-zero with probability density; negative lets entries go below zero
// (legal in the matrix, refused in the payments).
func randomOutcome(rng *rand.Rand, n, m int, density float64, negative bool) Outcome {
	o := Outcome{Alloc: NewAllocation(n, m), Pay: NewPayments(n, m)}
	draw := func(vs []fixed.Fixed) {
		for i := range vs {
			if rng.Float64() >= density {
				continue
			}
			vs[i] = fixed.Fixed(rng.Int63() >> uint(rng.Intn(63)))
			if negative && rng.Intn(4) == 0 {
				vs[i] = -vs[i]
			}
		}
	}
	draw(o.Alloc.Units)
	draw(o.Pay.ByUser)
	draw(o.Pay.ToProvider)
	return o
}

// hostile damages a valid encoding the ways a faulty or lying sender can:
// cut it, flip a bit, append to it, or rewrite one of the five counts.
func hostile(rng *rand.Rand, raw []byte) []byte {
	switch rng.Intn(5) {
	case 0:
		return raw[:rng.Intn(len(raw))]
	case 1:
		out := bytes.Clone(raw)
		out[rng.Intn(len(out))] ^= byte(1 << uint(rng.Intn(8)))
		return out
	case 2:
		return append(bytes.Clone(raw), byte(rng.Intn(256)))
	case 3: // a new header, body kept
		_, a := binary.Uvarint(raw)
		_, b := binary.Uvarint(raw[a:])
		counts := []uint64{0, 1, 2, 7, math.MaxInt32, math.MaxInt32 + 1, 1 << 32, 1 << 63, math.MaxUint64}
		out := binary.AppendUvarint(nil, counts[rng.Intn(len(counts))])
		out = binary.AppendUvarint(out, counts[rng.Intn(len(counts))])
		return append(out, raw[a+b:]...)
	default: // one byte overwritten, most often landing on a prefix of a small outcome
		out := bytes.Clone(raw)
		out[rng.Intn(len(out))] = byte(rng.Intn(256))
		return out
	}
}

// TestDecodeOutcomeMatchesReference is the bit-identity check: over 10 000
// random outcomes — dense, sparse, with negative entries, and damaged — the
// ingest and the old decoder accept the same inputs with the same values,
// the same canonical bytes and the same digest, and reject the same inputs.
// On a rejected input the class is the same too, except that the ingest
// settles shape and length before it allocates, so an input wrong in two
// ways may be refused for the earlier one.
func TestDecodeOutcomeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	accepted, rejected, earlier := 0, 0, 0
	for iter := 0; iter < 10000; iter++ {
		n, m := rng.Intn(40), rng.Intn(9)
		density := []float64{1, 0.1, 0.5}[iter%3]
		valid := randomOutcome(rng, n, m, density, iter%4 == 3)
		raw := valid.Encode()
		if iter%2 == 1 {
			raw = hostile(rng, raw)
		}
		want, wantErr := refDecodeOutcome(raw)
		got, err := DecodeOutcome(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("input %x: ingest says %v, reference says %v", raw, err, wantErr)
		}
		if err != nil {
			rejected++
			if errClass(err) != errClass(wantErr) {
				earlier++
				if c := errClass(err); c != "shape" && c != "truncated" && c != "corrupt" {
					t.Fatalf("input %x: ingest says %v, reference says %v", raw, err, wantErr)
				}
			}
			continue
		}
		accepted++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %x: ingest decoded %+v, reference %+v", raw, got, want)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) || got.Digest() != want.Digest() {
			t.Fatalf("input %x: canonical bytes or digest differ", raw)
		}
		// The three vectors share one array; growing one must not reach
		// into the next.
		if cap(got.Alloc.Units) != len(got.Alloc.Units) || cap(got.Pay.ByUser) != len(got.Pay.ByUser) {
			t.Fatalf("input %x: a vector's capacity runs into its neighbour", raw)
		}
	}
	t.Logf("%d accepted, %d rejected (%d of them for an earlier reason than the reference gave)", accepted, rejected, earlier)
	if accepted < 4000 || rejected < 3000 {
		t.Errorf("the generator is lopsided: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestOutcomeEncodingIsPinned holds the wire bytes of one outcome (and so
// its digest, their SHA-256) as literals: a change to the codec that moved
// the format could not pass by moving encoder and decoder together.
func TestOutcomeEncodingIsPinned(t *testing.T) {
	o := Outcome{Alloc: NewAllocation(2, 2), Pay: NewPayments(2, 2)}
	o.Alloc.Set(0, 1, fixed.One)
	o.Alloc.Set(1, 0, -3)
	o.Pay.ByUser[0] = 64
	o.Pay.ToProvider[1] = math.MaxInt64
	want := []byte{
		2, 2,
		4, 0, 0x80, 0x89, 0x7a, 5, 0,
		2, 0x80, 0x01, 0,
		2, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
	}
	if got := o.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode() = %x, want %x", got, want)
	}
	back, err := DecodeOutcome(want)
	if err != nil || !reflect.DeepEqual(back, o) {
		t.Fatalf("DecodeOutcome = %+v, %v", back, err)
	}
}

// craftedHeaders are inputs whose counts lie about what follows. Each is a
// few bytes long; none may cost the decoder an allocation.
func craftedHeaders() map[string][]byte {
	cat := func(counts ...uint64) []byte {
		var out []byte
		for _, c := range counts {
			out = binary.AppendUvarint(out, c)
		}
		return out
	}
	body := Outcome{Alloc: NewAllocation(3, 2), Pay: NewPayments(3, 2)}.Encode()
	return map[string][]byte{
		"users beyond int64":             cat(1<<63, 1, 0, 0, 0),
		"users beyond int32":             cat(math.MaxInt32+1, 0, 0, 0, 0),
		"providers beyond int32":         cat(0, math.MaxInt32+1, 0, 0, 0),
		"product wraps to zero":          cat(1<<32, 1<<32, 0, 0, 0),
		"product wraps to the prefix":    cat(1<<63+1, 2, 2, 0, 0, 0, 0),
		"units prefix below the product": append(cat(3, 2, 5), body[3:]...),
		"units prefix above the product": append(cat(3, 2, 7), body[3:]...),
		"units prefix beyond the input":  cat(1000, 8, 8000, 0, 0, 0),
		"payments beyond the input":      cat(math.MaxInt32, 0, 0, math.MaxInt32, 0),
		"providers beyond the input":     cat(0, math.MaxInt32, 0, 0, math.MaxInt32),
		"header cut mid-count":           {0x80},
		"units prefix cut mid-count":     {3, 2, 0x80},
		"units prefix overflows":         append([]byte{3, 2}, bytes.Repeat([]byte{0xff}, 11)...),
		"empty":                          nil,
	}
}

func TestDecodeOutcomeRejectsCraftedHeaders(t *testing.T) {
	for name, raw := range craftedHeaders() {
		if _, err := DecodeOutcome(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := refDecodeOutcome(raw); err == nil {
			t.Errorf("%s: the reference accepted it, so rejecting it changes the accept set", name)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = DecodeOutcome(raw) }); allocs != 0 {
			t.Errorf("%s: rejected after %v allocations", name, allocs)
		}
	}
}

// wideOutcome is the outcome of a Fig. 4 double auction: n users by m
// providers, about one unit in ten non-zero, most users paying.
func wideOutcome(n, m int) Outcome {
	rng := rand.New(rand.NewSource(1))
	o := Outcome{Alloc: NewAllocation(n, m), Pay: NewPayments(n, m)}
	for u := 0; u < n; u++ {
		if rng.Intn(10) < 8 {
			units := fixed.Fixed(rng.Int63n(int64(5 * fixed.One)))
			o.Alloc.Set(u, rng.Intn(m), units)
			o.Pay.ByUser[u] = units.MulFrac(fixed.Fixed(rng.Int63n(int64(3 * fixed.One))))
		}
	}
	for p := range o.Pay.ToProvider {
		o.Pay.ToProvider[p] = o.Alloc.ProviderLoad(p)
	}
	return o
}

func TestDecodeOutcomeSingleAlloc(t *testing.T) {
	raw := wideOutcome(1000, 8).Encode()
	if _, err := DecodeOutcome(raw); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { sinkOutcome, _ = DecodeOutcome(raw) }); allocs != 1 {
		t.Errorf("a 1000×8 outcome decoded with %v allocations, want 1", allocs)
	}
	// Cut so short that the counts promise more values than the bytes left
	// could hold, it is refused without storage.
	for _, cut := range []int{0, 1, 3, 4, len(raw) / 2, 9000} {
		if _, err := DecodeOutcome(raw[:cut]); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("cut at %d: %v", cut, err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = DecodeOutcome(raw[:cut]) }); allocs != 0 {
			t.Errorf("cut at %d: rejected after %v allocations", cut, allocs)
		}
	}
}

var sinkOutcome Outcome

func benchmarkDecodeOutcome(b *testing.B, o Outcome) {
	raw := o.Encode()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeOutcome(raw)
		if err != nil {
			b.Fatal(err)
		}
		sinkOutcome = out
	}
}

// BenchmarkDecodeOutcomeWide is what each of a Fig. 4 round's thousand
// bidders pays to read its result; BenchmarkDecodeOutcomeSmall is the
// market shape (n = 10, m = 3), which must not pay for the wide one.
func BenchmarkDecodeOutcomeWide(b *testing.B)  { benchmarkDecodeOutcome(b, wideOutcome(1000, 8)) }
func BenchmarkDecodeOutcomeSmall(b *testing.B) { benchmarkDecodeOutcome(b, wideOutcome(10, 3)) }
