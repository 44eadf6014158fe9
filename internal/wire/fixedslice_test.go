package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"distauction/internal/fixed"
)

// refFixedSlice is the per-element loop FixedSlice ran before the bulk
// kernel, kept as the reference the kernel must match: one binary.Varint per
// element, first error wins. It returns the values, the bytes consumed (up
// to the element that failed) and the error.
func refFixedSlice(raw []byte) ([]fixed.Fixed, int, error) {
	class := func(n int) error {
		if n == 0 {
			return ErrTruncated
		}
		return ErrCorrupt
	}
	count, off := binary.Uvarint(raw)
	if off <= 0 {
		return nil, 0, class(off)
	}
	if count > uint64(len(raw)-off) {
		return nil, off, ErrTruncated
	}
	out := make([]fixed.Fixed, count)
	for i := range out {
		v, n := binary.Varint(raw[off:])
		if n <= 0 {
			return nil, off, class(n)
		}
		out[i] = fixed.Fixed(v)
		off += n
	}
	return out, off, nil
}

// refEncodeFixedSlice is the per-element encoder of the same vintage.
func refEncodeFixedSlice(fs []fixed.Fixed) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(fs)))
	for _, f := range fs {
		buf = binary.AppendVarint(buf, int64(f))
	}
	return buf
}

// checkAgainstReference runs both forms of the kernel over raw and fails
// unless each agrees with the reference on values, bytes consumed and error
// class.
func checkAgainstReference(t *testing.T, raw []byte) {
	t.Helper()
	want, wantOff, wantErr := refFixedSlice(raw)

	d := NewDecoder(raw)
	got := d.FixedSlice()
	if !errors.Is(d.Err(), wantErr) || (wantErr == nil && d.Err() != nil) {
		t.Fatalf("FixedSlice(%x): error %v, reference %v", raw, d.Err(), wantErr)
	}
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("FixedSlice(%x) = %v, reference %v", raw, got, want)
	}
	if d.off != wantOff {
		t.Fatalf("FixedSlice(%x) consumed %d bytes, reference %d", raw, d.off, wantOff)
	}

	// The decode-into form over exactly enough storage sees the same
	// stream. It has no count-vs-input check of its own (it allocates
	// nothing), so a count the reference refused outright must fail, in
	// whichever class.
	count, prefix := binary.Uvarint(raw)
	refusedCount := prefix > 0 && count > uint64(len(raw)-prefix)
	if count > uint64(len(raw)) {
		count = uint64(len(raw))
	}
	dst := make([]fixed.Fixed, count)
	for i := range dst {
		dst[i] = -1 // stale contents must not survive a successful decode
	}
	d = NewDecoder(raw)
	n := d.FixedSliceInto(dst)
	switch {
	case refusedCount:
		if d.Err() == nil || n != 0 {
			t.Fatalf("FixedSliceInto(%x) accepted a count larger than the input", raw)
		}
	case wantErr != nil:
		if !errors.Is(d.Err(), wantErr) || n != 0 || d.off != wantOff {
			t.Fatalf("FixedSliceInto(%x): n = %d, error %v at %d, reference %v at %d", raw, n, d.Err(), d.off, wantErr, wantOff)
		}
	default:
		if d.Err() != nil || n != len(want) || !slices.Equal(dst, want) || d.off != wantOff {
			t.Fatalf("FixedSliceInto(%x) = %v (%d bytes, err %v), reference %v (%d bytes)", raw, dst[:n], d.off, d.Err(), want, wantOff)
		}
	}

	// Whatever decodes re-encodes to bytes that decode to the same values,
	// and to the very same bytes when the input was canonical.
	if wantErr != nil {
		return
	}
	var e Encoder
	e.FixedSlice(got)
	if !bytes.Equal(e.Buffer(), refEncodeFixedSlice(got)) {
		t.Fatalf("Encoder.FixedSlice(%v) = %x, reference %x", got, e.Buffer(), refEncodeFixedSlice(got))
	}
	again, _, err := refFixedSlice(e.Buffer())
	if err != nil || !slices.Equal(again, got) {
		t.Fatalf("round trip of %v: %v, err %v", got, again, err)
	}
}

// fixedSliceSeeds are the inputs the differential fuzzer starts from: the
// boundaries of the varint format and of the slice framing.
func fixedSliceSeeds() [][]byte {
	tenBytes := func(last byte) []byte { // nine continuation bytes, then last
		return append(bytes.Repeat([]byte{0xff}, 9), last)
	}
	return [][]byte{
		nil,
		{0},
		refEncodeFixedSlice([]fixed.Fixed{0, 1, -1, 63, -64, 64, -65, fixed.One}),
		refEncodeFixedSlice([]fixed.Fixed{math.MinInt64, math.MaxInt64}), // ten bytes each
		{2, 0x80, 0x00, 0x81, 0x80, 0x00},                                // over-long encodings of 0 and 1
		append([]byte{1}, tenBytes(0x01)...),                             // largest legal tenth byte
		append([]byte{1}, tenBytes(0x02)...),                             // 65 bits
		append([]byte{1}, append(tenBytes(0x80), 0x00)...),               // eleven bytes: overflow
		append([]byte{1}, tenBytes(0x80)...),                             // ten continuation bytes, then nothing
		{200, 1, 0, 0},                                                   // count prefix larger than the input
		{3, 2, 4, 0x80},                                                  // third value cut mid-way
		{3, 2, 4},                                                        // third value missing
		{0x80},                                                           // count cut mid-way
		append(bytes.Repeat([]byte{0xff}, 10), 0x01),                     // count overflows
		{1, 0, 9}, // a trailing byte is the caller's to judge
	}
}

func FuzzFixedSlice(f *testing.F) {
	for _, seed := range fixedSliceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkAgainstReference)
}

// TestFixedSliceMatchesReference drives the fuzzer's oracle over the seeds
// and over random dense, sparse and mutated vectors, so the property runs on
// every `go test`, not only under -fuzz.
func TestFixedSliceMatchesReference(t *testing.T) {
	for _, seed := range fixedSliceSeeds() {
		checkAgainstReference(t, seed)
	}
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 2000; iter++ {
		fs := make([]fixed.Fixed, rng.Intn(200))
		nonZero := []float64{0.1, 0.5, 1}[iter%3]
		for i := range fs {
			if rng.Float64() < nonZero {
				// Every byte length from one to ten, both signs.
				fs[i] = fixed.Fixed(rng.Int63()>>uint(rng.Intn(64))) * fixed.Fixed(1-2*rng.Intn(2))
			}
		}
		raw := refEncodeFixedSlice(fs)
		checkAgainstReference(t, raw)
		if len(raw) > 1 {
			checkAgainstReference(t, raw[:rng.Intn(len(raw))]) // cut short
			mutated := bytes.Clone(raw)
			mutated[rng.Intn(len(mutated))] ^= byte(1 << uint(rng.Intn(8)))
			checkAgainstReference(t, mutated)
		}
	}
}

func TestFixedSliceIntoRefusesShortDestination(t *testing.T) {
	raw := refEncodeFixedSlice([]fixed.Fixed{1, 2, 3})
	dst := []fixed.Fixed{7, 7}
	d := NewDecoder(raw)
	if n := d.FixedSliceInto(dst); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("three values into two slots: n = %d, err %v", n, d.Err())
	}
	if dst[0] != 7 || dst[1] != 7 {
		t.Errorf("refused decode wrote %v", dst)
	}
	// Room to spare is fine: the count comes back and the rest is untouched.
	dst = []fixed.Fixed{7, 7, 7, 7}
	d = NewDecoder(raw)
	if n := d.FixedSliceInto(dst); n != 3 || d.Finish() != nil || !slices.Equal(dst, []fixed.Fixed{1, 2, 3, 7}) {
		t.Fatalf("three values into four slots: n = %d, dst %v, err %v", n, dst, d.Err())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		d := Decoder{buf: raw}
		d.FixedSliceInto(dst)
	}); allocs != 0 {
		t.Errorf("FixedSliceInto allocated %v times", allocs)
	}
}

var sinkFixeds []fixed.Fixed

// benchVector is n values of which about one in ten is non-zero: the shape
// of a wide double auction's allocation matrix.
func benchVector(n int) []fixed.Fixed {
	rng := rand.New(rand.NewSource(1))
	fs := make([]fixed.Fixed, n)
	for i := range fs {
		if rng.Intn(10) == 0 {
			fs[i] = fixed.Fixed(rng.Int63n(int64(50 * fixed.One)))
		}
	}
	return fs
}

func BenchmarkFixedSliceDecode(b *testing.B) {
	raw := refEncodeFixedSlice(benchVector(8000))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := Decoder{buf: raw}
		sinkFixeds = d.FixedSlice()
	}
}

func BenchmarkFixedSliceEncode(b *testing.B) {
	fs := benchVector(8000)
	var e Encoder
	e.FixedSlice(fs)
	b.SetBytes(int64(e.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.FixedSlice(fs)
	}
}
