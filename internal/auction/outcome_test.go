package auction

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"distauction/internal/fixed"
	"distauction/internal/wire"
)

// denseEncode is the outcome encoding that preceded the frame: NumUsers,
// NumProviders, then the unit matrix and the two payment vectors as
// length-prefixed slices, every cell a zig-zag varint. It is kept, with
// refDecodeOutcome, as the reference the frame's values are held to.
func denseEncode(o Outcome) []byte {
	enc := wire.NewEncoder(0)
	enc.Uvarint(uint64(o.Alloc.NumUsers))
	enc.Uvarint(uint64(o.Alloc.NumProviders))
	enc.FixedSlice(o.Alloc.Units)
	enc.FixedSlice(o.Pay.ByUser)
	enc.FixedSlice(o.Pay.ToProvider)
	return enc.Buffer()
}

// refDecodeOutcome is the decoder of the dense encoding as it stood before
// the single-pass ingest: three independently allocated vectors, one Fixed()
// per element, shape checked by Validate at the end.
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

// refDecodeFrame reads the outcome frame one element at a time: a Uvarint
// per count, a Uint8 per bitmap byte, a Fixed per set bit and per payment,
// each vector allocated on its own, the payments' shape and sign checked by
// Validate at the end. It is the reference DecodeOutcome is held to on
// inputs that are not an intact frame.
func refDecodeFrame(raw []byte) (Outcome, error) {
	d := wire.NewDecoder(raw)
	nu, np := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return Outcome{}, err
	}
	if nu > math.MaxInt32 || np > math.MaxInt32 {
		return Outcome{}, ErrShape
	}
	cells := nu * np
	if (cells+7)/8 > uint64(d.Remaining()) {
		return Outcome{}, wire.ErrTruncated
	}
	bitmap := make([]byte, (cells+7)/8)
	for i := range bitmap {
		bitmap[i] = d.Uint8()
	}
	o := Outcome{Alloc: NewAllocation(int(nu), int(np))}
	for c := range 8 * uint64(len(bitmap)) {
		if bitmap[c/8]>>(c%8)&1 == 0 {
			continue
		}
		if c >= cells {
			return Outcome{}, wire.ErrCorrupt // a padding bit
		}
		v := d.Fixed()
		if err := d.Err(); err != nil {
			return Outcome{}, err
		}
		if v == 0 {
			return Outcome{}, wire.ErrCorrupt // a zero under a set bit
		}
		o.Alloc.Units[c] = v
	}
	var refused error
	slice := func() []fixed.Fixed {
		n := d.Uvarint()
		if refused != nil || d.Err() != nil {
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
		return out
	}
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
// cut it, flip a bit, append to it, or rewrite its header.
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
	default: // one byte overwritten, most often landing on a count or the bitmap of a small outcome
		out := bytes.Clone(raw)
		out[rng.Intn(len(out))] = byte(rng.Intn(256))
		return out
	}
}

// TestDecodeOutcomeMatchesReference is the bit-identity check over 10 000
// random outcomes — dense, sparse, with negative entries, and damaged. An
// intact frame decodes to exactly what the dense reference reads from the
// dense encoding of the same outcome, and is refused where that is. A
// damaged frame is accepted or refused as the per-element reference of the
// frame accepts or refuses it, with the same values. Whatever is accepted
// has the same canonical bytes and digest as the reference's value. On a
// rejected input the class is the same too, except that the ingest settles
// the header and the bitmap's counts before it allocates, so an input wrong
// in two ways may be refused for the earlier one.
func TestDecodeOutcomeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	accepted, rejected, earlier := 0, 0, 0
	for iter := 0; iter < 10000; iter++ {
		n, m := rng.Intn(40), rng.Intn(9)
		density := []float64{1, 0.1, 0.5}[iter%3]
		valid := randomOutcome(rng, n, m, density, iter%4 == 3)
		raw := valid.Encode()
		var want Outcome
		var wantErr error
		if iter%2 == 0 {
			want, wantErr = refDecodeOutcome(denseEncode(valid))
		} else {
			raw = hostile(rng, raw)
			want, wantErr = refDecodeFrame(raw)
		}
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
		if dense, err := refDecodeOutcome(denseEncode(got)); err != nil || !reflect.DeepEqual(dense, got) {
			t.Fatalf("input %x: the dense reference reads %+v (%v) from the same outcome", raw, dense, err)
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

// TestOutcomeEncodingIsPinned holds the wire bytes of one outcome and their
// SHA-256, its digest, as literals: a change to the codec that moved the
// format could not pass by moving encoder and decoder together.
func TestOutcomeEncodingIsPinned(t *testing.T) {
	o := Outcome{Alloc: NewAllocation(2, 2), Pay: NewPayments(2, 2)}
	o.Alloc.Set(0, 1, fixed.One)
	o.Alloc.Set(1, 0, -3)
	o.Pay.ByUser[0] = 64
	o.Pay.ToProvider[1] = math.MaxInt64
	want := []byte{
		2, 2,
		0b0000_0110, 0x80, 0x89, 0x7a, 5, // cells 1 and 2 set: fixed.One, then -3
		2, 0x80, 0x01, 0,
		2, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
	}
	const wantDigest = "22fb34ddfc1c011bcdfa4a1cb227fe806e03a1bd5ab15b65f2132a984bb695e1"
	if got := o.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode() = %x, want %x", got, want)
	}
	if got := o.Digest(); hex.EncodeToString(got[:]) != wantDigest {
		t.Fatalf("Digest() = %x, want %s", got, wantDigest)
	}
	back, err := DecodeOutcome(want)
	if err != nil || !reflect.DeepEqual(back, o) {
		t.Fatalf("DecodeOutcome = %+v, %v", back, err)
	}
}

// TestOutcomeFrameSize pins the frame of a Fig. 4-shaped outcome, n = 1000
// users by m = 8 providers with one unit per user, in its own arithmetic,
// beside the dense encoding it replaced.
func TestOutcomeFrameSize(t *testing.T) {
	const n, m = 1000, 8
	o := Outcome{Alloc: NewAllocation(n, m), Pay: NewPayments(n, m)}
	for u := 0; u < n; u++ {
		o.Alloc.Set(u, u%m, fixed.One)         // zig-zag 2·10⁶ < 2²¹: 3 bytes
		o.Pay.ByUser[u] = fixed.MustFloat(1.5) // zig-zag 3·10⁶ < 2²⁸: 4 bytes
		o.Pay.ToProvider[u%m] += o.Pay.ByUser[u]
	}
	// Each provider receives 125 × 1.5 = 187.5: zig-zag 3.75·10⁸ < 2³⁵, 5 bytes.
	const (
		header   = 2 + 1 // uvarint 1000, uvarint 8
		payments = (2 + n*4) + (1 + m*5)
		frame    = header + n*m/8 + n*3 + payments
		dense    = header + (2 + (n*m-n)*1 + n*3) + payments
	)
	if got := len(o.Encode()); got != frame {
		t.Errorf("frame is %d bytes, want %d", got, frame)
	}
	if got := len(denseEncode(o)); got != dense {
		t.Errorf("dense encoding is %d bytes, want %d", got, dense)
	}
	if got := cap(o.Encode()); got != frame {
		t.Errorf("Encode reserved %d bytes for a %d-byte frame", got, frame)
	}
}

// craftedHeaders are inputs whose counts or bitmap lie about what follows,
// and a zero under a set bit, the one spelling of a cell the bitmap forbids.
// Each is a few bytes long; none may cost the decoder an allocation.
func craftedHeaders() map[string][]byte {
	cat := func(counts ...uint64) []byte {
		var out []byte
		for _, c := range counts {
			out = binary.AppendUvarint(out, c)
		}
		return out
	}
	return map[string][]byte{
		"users beyond int64":             cat(1<<63, 1, 0, 0, 0),
		"users beyond int32":             cat(math.MaxInt32+1, 0, 0, 0, 0),
		"providers beyond int32":         cat(0, math.MaxInt32+1, 0, 0, 0),
		"product wraps to zero":          cat(1<<32, 1<<32, 0, 0, 0),
		"bitmap beyond the input":        cat(1000, 8, 0, 0, 0),
		"bitmap cut short":               {16, 1, 0xff},
		"popcount beyond the input":      {3, 8, 0xff, 0xff, 0xff, 2, 2, 2},
		"padding bit set":                frame3x2(0b0100_0000, append([]byte{2}, zeroPayments...)...),
		"zero under a set bit":           frame3x2(0b0000_0001, append([]byte{0}, zeroPayments...)...),
		"user payments below the header": frame3x2(0, 2, 0, 0, 2, 0, 0),
		"provider payments cut short":    frame3x2(0, 3, 0, 0, 0, 2, 0),
		"payments beyond the input":      cat(math.MaxInt32, 0, 0, math.MaxInt32, 0),
		"providers beyond the input":     cat(0, math.MaxInt32, 0, 0, math.MaxInt32),
		"header cut mid-count":           {0x80},
		"bitmap missing":                 {3, 2},
		"users count overflows":          bytes.Repeat([]byte{0xff}, 11),
		"empty":                          nil,
	}
}

// frame3x2 is a frame of 3 users by 2 providers: one bitmap byte, then the
// rest. zeroPayments are the payments of such an outcome that moves nothing.
func frame3x2(bitmap byte, rest ...byte) []byte { return append([]byte{3, 2, bitmap}, rest...) }

var zeroPayments = []byte{3, 0, 0, 0, 2, 0, 0}

// craftedBodies are frames whose header and bitmap hold, but whose body
// breaks one rule of the format: the check pass meets it, before the
// frame's one allocation.
func craftedBodies() map[string][]byte {
	return map[string][]byte{
		"over-long zero under a set bit": frame3x2(0b0000_0001, append([]byte{0x80, 0}, zeroPayments...)...),
		"unit value overflows":           frame3x2(0b0000_0001, append(append(bytes.Repeat([]byte{0xff}, 10), 1), zeroPayments...)...),
		"user payments above the header": frame3x2(0, 4, 0, 0, 0, 0, 2, 0, 0),
		"negative user payment":          frame3x2(0, 3, 0, 1, 0, 2, 0, 0),
		"negative provider payment":      frame3x2(0, 3, 0, 0, 0, 2, 3, 0),
		"trailing byte":                  frame3x2(0, append(bytes.Clone(zeroPayments), 0)...),
	}
}

func TestDecodeOutcomeRejectsCraftedHeaders(t *testing.T) { checkRefusedFree(t, craftedHeaders()) }

func TestDecodeOutcomeRejectsCraftedBodies(t *testing.T) { checkRefusedFree(t, craftedBodies()) }

// checkRefusedFree holds DecodeOutcome to refusing each input, as the
// reference does, without an allocation (every refusal is a bare sentinel
// error, and the body is checked before the storage exists).
func checkRefusedFree(t *testing.T, inputs map[string][]byte) {
	t.Helper()
	for name, raw := range inputs {
		if _, err := DecodeOutcome(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := refDecodeFrame(raw); err == nil {
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
	// Cut anywhere, it is refused without storage: early on because the
	// bitmap and the counts promise more values than the bytes left could
	// hold, later by the check pass over the body.
	for _, cut := range []int{0, 1, 3, 4, len(raw) / 8, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
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
