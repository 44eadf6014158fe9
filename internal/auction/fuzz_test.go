package auction

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"distauction/internal/fixed"
	"distauction/internal/testalloc"
)

// The bid decoders read bytes straight from the least trusted parties: a
// bidder's submission, a provider's ask, and the bid vector a provider
// encodes for input validation. Each target checks: no panic; a stated
// allocation bound; a trailing byte is an error; and whatever decodes
// re-encodes to bytes that decode to the same value and encode the same
// again (encode → decode → encode is a fixed point).

// errAllowance covers the error a failed decode formats.
const errAllowance = 512

// bidSeeds is encoder output plus truncation, an extra byte and an
// overlong varint.
func bidSeeds(f *testing.F, encs ...[]byte) {
	for _, enc := range encs {
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(bytes.Clone(enc), 0))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 11))
}

// A single bid decodes into a value: nothing but a failure's error may
// allocate.
func FuzzDecodeUserBid(f *testing.F) {
	bidSeeds(f, UserBid{}.Encode(), UserBid{Value: fixed.MustFloat(2.5), Demand: fixed.One}.Encode(),
		UserBid{Value: -fixed.One, Demand: fixed.Max}.Encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		var b UserBid
		var err error
		if got := testalloc.HeapBytes(func() { b, err = DecodeUserBid(raw) }); got > errAllowance {
			t.Fatalf("%d-byte input: decode allocated %d bytes", len(raw), got)
		}
		if err != nil {
			return
		}
		if _, err := DecodeUserBid(append(bytes.Clone(raw), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		enc := b.Encode()
		again, err := DecodeUserBid(enc)
		if err != nil || again != b || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("encode → decode → encode moved %+v to %+v, err %v", b, again, err)
		}
	})
}

func FuzzDecodeProviderBid(f *testing.F) {
	bidSeeds(f, ProviderBid{}.Encode(), ProviderBid{Cost: fixed.One, Capacity: fixed.MustInt(10)}.Encode(),
		ProviderBid{Cost: fixed.Max, Capacity: -fixed.One}.Encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		var b ProviderBid
		var err error
		if got := testalloc.HeapBytes(func() { b, err = DecodeProviderBid(raw) }); got > errAllowance {
			t.Fatalf("%d-byte input: decode allocated %d bytes", len(raw), got)
		}
		if err != nil {
			return
		}
		if _, err := DecodeProviderBid(append(bytes.Clone(raw), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		enc := b.Encode()
		again, err := DecodeProviderBid(enc)
		if err != nil || again != b || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("encode → decode → encode moved %+v to %+v, err %v", b, again, err)
		}
	})
}

// Every bid in a vector takes at least two input bytes and 16 decoded ones,
// so a vector allocates at most 8 bytes per input byte.
func FuzzDecodeBidVector(f *testing.F) {
	full := BidVector{
		Users:     []UserBid{{Value: fixed.One, Demand: fixed.MustInt(3)}, {}},
		Providers: []ProviderBid{{Cost: fixed.MustFloat(0.5), Capacity: fixed.MustInt(7)}},
	}
	bidSeeds(f, BidVector{}.Encode(), full.Encode(), BidVector{Users: full.Users}.Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a count far beyond the input
	f.Fuzz(func(t *testing.T, raw []byte) {
		var v BidVector
		var err error
		got := testalloc.HeapBytes(func() { v, err = DecodeBidVector(raw) })
		if limit := 8*uint64(len(raw)) + errAllowance; got > limit {
			t.Fatalf("%d-byte input: decode allocated %d bytes, limit %d", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		if 2*(len(v.Users)+len(v.Providers)) > len(raw) {
			t.Fatalf("%d-byte input decoded to %d+%d bids", len(raw), len(v.Users), len(v.Providers))
		}
		if _, err := DecodeBidVector(append(bytes.Clone(raw), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		enc := v.Encode()
		again, err := DecodeBidVector(enc)
		if err != nil || !reflect.DeepEqual(again, v) || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("encode → decode → encode moved %+v to %+v, err %v", v, again, err)
		}
	})
}

// The outcome frame is what every provider sends every bidder. Its target
// holds DecodeOutcome to refDecodeFrame, the per-element reading of the same
// format: the same accept set and the same values. A refusal allocates
// nothing. The one allocation holds 8 bytes per value, which the allocator
// rounds up by less than double, and a frame promises at most eight cells
// per input byte (a zero cell is one bit) and one payment per byte: so an
// accepted frame allocates at most 16 bytes per value it holds, and any
// input at most 16·9 bytes per input byte. A trailing byte is an error, and
// decode → encode → decode is a fixed point.
func FuzzDecodeOutcome(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	pinned := Outcome{Alloc: NewAllocation(2, 2), Pay: NewPayments(2, 2)}
	pinned.Alloc.Set(0, 1, fixed.One)
	pinned.Alloc.Set(1, 0, -3)
	bidSeeds(f,
		Outcome{}.Encode(),
		pinned.Encode(),
		wideOutcome(64, 8).Encode(),
		randomOutcome(rng, 9, 3, 0.5, true).Encode(),
		randomOutcome(rng, 5, 7, 1, false).Encode(),
	)
	for _, raw := range craftedHeaders() {
		f.Add(raw)
	}
	for _, raw := range craftedBodies() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var o Outcome
		var err error
		got := testalloc.HeapBytes(func() { o, err = DecodeOutcome(raw) })
		want, wantErr := refDecodeFrame(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeOutcome says %v, the reference %v", err, wantErr)
		}
		if limit := 16*9*uint64(len(raw)) + errAllowance; got > limit {
			t.Fatalf("%d-byte input: decode allocated %d bytes, limit %d", len(raw), got, limit)
		}
		if err != nil {
			if got > errAllowance {
				t.Fatalf("%d-byte input: refused after allocating %d bytes", len(raw), got)
			}
			return
		}
		if !reflect.DeepEqual(o, want) {
			t.Fatalf("DecodeOutcome = %+v, the reference %+v", o, want)
		}
		values := len(o.Alloc.Units) + len(o.Pay.ByUser) + len(o.Pay.ToProvider)
		if values > 8*len(raw) {
			t.Fatalf("%d-byte input decoded to %d values", len(raw), values)
		}
		if limit := 16*uint64(values) + errAllowance; got > limit {
			t.Fatalf("%d values: decode allocated %d bytes, limit %d", values, got, limit)
		}
		if _, err := DecodeOutcome(append(bytes.Clone(raw), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		enc := o.Encode()
		again, err := DecodeOutcome(enc)
		if err != nil || !reflect.DeepEqual(again, o) || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("decode → encode → decode moved %+v to %+v, err %v", o, again, err)
		}
	})
}
