package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"distauction/internal/auction"
	"distauction/internal/fixed"
	"distauction/internal/mechanism/standardauction"
)

// The three decoders below read bytes another party produced — a different
// provider group's task output, or a provider's result report to a bidder.
// Each target checks the same contract: no panic, nothing decoded is larger
// than the input that carried it (so no allocation a short message can
// inflate), trailing bytes are an error, and whatever decodes re-encodes to
// bytes that decode to the same value.

func FuzzAllocResult(f *testing.F) {
	f.Add(encodeAllocResult(0, nil), 0)
	f.Add(encodeAllocResult(42, standardauction.Assignment{0, -1, 3}), 3)
	f.Add(encodeAllocResult(^uint64(0), standardauction.Assignment{7}), 2) // user-count mismatch
	f.Add(append(encodeAllocResult(1, standardauction.Assignment{1}), 0), 1)
	f.Fuzz(func(t *testing.T, raw []byte, wantUsers int) {
		seed, assign, err := decodeAllocResult(raw, wantUsers)
		if err != nil {
			if assign != nil {
				t.Fatal("assignment returned alongside an error")
			}
			return
		}
		if len(assign) != wantUsers || len(assign) > len(raw) {
			t.Fatalf("%d-byte input decoded to %d users (want %d)", len(raw), len(assign), wantUsers)
		}
		if _, _, err := decodeAllocResult(append(bytes.Clone(raw), 0), wantUsers); err == nil {
			t.Fatal("trailing byte accepted")
		}
		seed2, assign2, err := decodeAllocResult(encodeAllocResult(seed, assign), wantUsers)
		if err != nil || seed2 != seed || !reflect.DeepEqual(assign2, assign) {
			t.Fatalf("round trip: (%d, %v) became (%d, %v), err %v", seed, assign, seed2, assign2, err)
		}
	})
}

func FuzzPayShare(f *testing.F) {
	f.Add(encodePayShare(nil, nil))
	f.Add(encodePayShare([]int{0, 2, 4}, []fixed.Fixed{fixed.One, 0, fixed.MustFloat(2.5)}))
	f.Add(encodePayShare([]int{-1}, []fixed.Fixed{-fixed.One})) // foreign index: gather rejects it
	f.Add(append(encodePayShare([]int{1}, []fixed.Fixed{1}), 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		idx, pays, err := decodePayShare(raw)
		if err != nil {
			if idx != nil || pays != nil {
				t.Fatal("share returned alongside an error")
			}
			return
		}
		if len(idx) != len(pays) || 2*len(idx) > len(raw) {
			t.Fatalf("%d-byte input decoded to %d indexes, %d payments", len(raw), len(idx), len(pays))
		}
		if _, _, err := decodePayShare(append(bytes.Clone(raw), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		idx2, pays2, err := decodePayShare(encodePayShare(idx, pays))
		if err != nil || !reflect.DeepEqual(idx2, idx) || !reflect.DeepEqual(pays2, pays) {
			t.Fatalf("round trip: (%v, %v) became (%v, %v), err %v", idx, pays, idx2, pays2, err)
		}
	})
}

// FuzzBidderResult drives the payload a bidder receives from each provider
// through both layers it decodes: the accepted flag + outcome frame, then
// the outcome itself.
func FuzzBidderResult(f *testing.F) {
	out := auction.Outcome{
		Alloc: auction.NewAllocation(2, 1),
		Pay:   auction.Payments{ByUser: []fixed.Fixed{fixed.One, 0}, ToProvider: []fixed.Fixed{fixed.One}},
	}
	out.Alloc.Units[0] = fixed.One
	f.Add(encodeResult(true, out.Encode()))
	f.Add(encodeResult(false, nil))
	f.Add(encodeResult(true, []byte("not an outcome")))
	f.Add(append(encodeResult(true, out.Encode()), 0))
	f.Add([]byte{2, 0}) // flag byte that is neither 0 nor 1
	// A wide sparse outcome, the shape the bulk decode kernel is for, and
	// headers whose counts lie about what follows (users, providers, units
	// prefix, then the body): beyond int64, beyond int32, a product that
	// wraps, a units prefix off by one, counts far beyond the input.
	wide := auction.Outcome{Alloc: auction.NewAllocation(64, 8), Pay: auction.NewPayments(64, 8)}
	for u := 0; u < 64; u += 3 {
		wide.Alloc.Set(u, u%8, fixed.One)
		wide.Pay.ByUser[u] = fixed.MustFloat(1.5)
		wide.Pay.ToProvider[u%8] += fixed.MustFloat(1.5)
	}
	f.Add(encodeResult(true, wide.Encode()))
	for _, counts := range [][]uint64{
		{1 << 63, 1, 0, 0, 0},
		{math.MaxInt32 + 1, 0, 0, 0, 0},
		{1 << 32, 1 << 32, 0, 0, 0},
		{1<<63 + 1, 2, 2, 0, 0, 0, 0},
		{2, 1, 3, 0, 0, 2, 0, 0, 1, 0},
		{1000, 8, 8000, 0, 0, 0},
		{math.MaxInt32, 0, 0, math.MaxInt32, 0},
	} {
		var crafted []byte
		for _, c := range counts {
			crafted = binary.AppendUvarint(crafted, c)
		}
		f.Add(encodeResult(true, crafted))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		ok, raw, err := decodeResult(payload)
		if err != nil {
			return
		}
		if len(raw) >= len(payload) {
			t.Fatalf("%d-byte payload framed a %d-byte outcome", len(payload), len(raw))
		}
		if _, _, err := decodeResult(append(bytes.Clone(payload), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		if ok2, raw2, err := decodeResult(encodeResult(ok, raw)); err != nil || ok2 != ok || !bytes.Equal(raw2, raw) {
			t.Fatalf("frame round trip: (%v, %x) became (%v, %x), err %v", ok, raw, ok2, raw2, err)
		}
		got, err := auction.DecodeOutcome(raw)
		if err != nil {
			return
		}
		if n := len(got.Alloc.Units) + len(got.Pay.ByUser) + len(got.Pay.ToProvider); n > len(raw) {
			t.Fatalf("%d-byte outcome decoded to %d values", len(raw), n)
		}
		again, err := auction.DecodeOutcome(got.Encode())
		if err != nil || again.Digest() != got.Digest() {
			t.Fatalf("outcome round trip: err %v", err)
		}
	})
}
