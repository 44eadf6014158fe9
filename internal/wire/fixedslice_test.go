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

	// The check pass reads the same stream without storing it: the same
	// error class and offset, and on success the same bytes consumed and
	// whether a value was zero and whether one was negative.
	if prefix > 0 && !refusedCount {
		d = NewDecoder(raw)
		d.Uvarint()
		zero, negative := d.SkipFixeds(int(count))
		wantZero := slices.Contains(want, 0)
		wantNegative := slices.ContainsFunc(want, func(v fixed.Fixed) bool { return v < 0 })
		switch {
		case wantErr != nil:
			if !errors.Is(d.Err(), wantErr) || d.off != wantOff {
				t.Fatalf("SkipFixeds(%x): error %v at %d, reference %v at %d", raw, d.Err(), d.off, wantErr, wantOff)
			}
		case d.Err() != nil || d.off != wantOff || zero != wantZero || negative != wantNegative:
			t.Fatalf("SkipFixeds(%x): zero %v, negative %v, %d bytes, err %v; reference %v, %v, %d bytes",
				raw, zero, negative, d.off, d.Err(), wantZero, wantNegative, wantOff)
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
		// Long enough for the check pass's word loop: an over-long zero
		// inside it, and a ten-byte value across a word boundary.
		respelledStream([]fixed.Fixed{1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 10, 11, 12, 13}, map[int]int{8: 2}),
		respelledStream([]fixed.Fixed{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, map[int]int{6: 10}),
	}
}

// respelledStream is the slice encoding of fs with value i spelled in
// long[i] bytes where long has it: the canonical bytes with every byte a
// continuation byte, then 0x80 bytes, then 0x00. Past ten bytes the value
// overflows.
func respelledStream(fs []fixed.Fixed, long map[int]int) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(fs)))
	for i, f := range fs {
		at := len(buf)
		buf = binary.AppendVarint(buf, int64(f))
		if n := long[i]; n > len(buf)-at {
			buf[len(buf)-1] |= 0x80
			for len(buf)-at < n-1 {
				buf = append(buf, 0x80)
			}
			buf = append(buf, 0)
		}
	}
	return buf
}

func FuzzFixedSlice(f *testing.F) {
	for _, seed := range fixedSliceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkAgainstReference)
}

// TestSkipFixedsWordLoop drives the fuzzer's oracle over streams long
// enough for SkipFixeds' word loop, in which values of every length are
// respelled in up to eleven bytes: over-long zeros, values of nine and ten
// bytes across word boundaries, and overflows.
func TestSkipFixedsWordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for iter := 0; iter < 3000; iter++ {
		fs := make([]fixed.Fixed, 9+rng.Intn(60))
		long := map[int]int{}
		for i := range fs {
			// Half the streams hold no zero, so that a value misread as
			// zero shows.
			for (iter%2 == 0 || rng.Intn(3) > 0) && fs[i] == 0 {
				fs[i] = fixed.Fixed(rng.Int63()>>uint(rng.Intn(64))) * fixed.Fixed(1-2*rng.Intn(2))
			}
			if rng.Intn(1+iter%8) == 0 {
				long[i] = 2 + rng.Intn(10)
			}
		}
		checkAgainstReference(t, respelledStream(fs, long))
	}
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

// TestSparseFixedsRoundTrip encodes random vectors of every length from 0
// to 199 (so every padding width) and density with SparseFixeds and reads
// them back with Bitmap and SparseFixedsInto, and holds the Size functions
// to the bytes the encoders append.
func TestSparseFixedsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for iter := 0; iter < 2000; iter++ {
		fs := make([]fixed.Fixed, iter%200)
		set := 0
		for i := range fs {
			if rng.Float64() < []float64{0, 0.1, 0.5, 1}[iter%4] {
				for fs[i] == 0 {
					fs[i] = fixed.Fixed(rng.Int63()>>uint(rng.Intn(64))) * fixed.Fixed(1-2*rng.Intn(2))
				}
				set++
			}
		}
		var e Encoder
		e.SparseFixeds(fs)
		if e.Len() != SparseFixedsSize(fs) {
			t.Fatalf("SparseFixeds(%v) wrote %d bytes, SparseFixedsSize says %d", fs, e.Len(), SparseFixedsSize(fs))
		}
		d := NewDecoder(e.Buffer())
		bitmap, gotSet := d.Bitmap(uint64(len(fs)))
		got := make([]fixed.Fixed, len(fs))
		d.SparseFixedsInto(bitmap, got)
		if err := d.Finish(); err != nil || gotSet != set || !slices.Equal(got, fs) {
			t.Fatalf("%v came back as %v (%d set, want %d), err %v", fs, got, gotSet, set, err)
		}
		e.Reset()
		e.FixedSlice(fs)
		if e.Len() != FixedSliceSize(fs) {
			t.Fatalf("FixedSlice(%v) wrote %d bytes, FixedSliceSize says %d", fs, e.Len(), FixedSliceSize(fs))
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, math.MaxUint64} {
		if got := UvarintSize(v); got != len(binary.AppendUvarint(nil, v)) {
			t.Errorf("UvarintSize(%d) = %d", v, got)
		}
	}
}

// TestSparseFixedsRefusals holds the sparse reader to its refusals, each
// with its class: a bitmap the input cannot hold, a set padding bit, a zero
// or an over-long zero under a set bit, a value cut short or past 64 bits,
// and a set bit past the destination or more of them than it holds.
func TestSparseFixedsRefusals(t *testing.T) {
	for _, c := range []struct {
		name  string
		cells uint64
		dst   int
		raw   []byte
		want  error
	}{
		{"bitmap beyond the input", 17, 17, []byte{1, 0}, ErrTruncated},
		{"padding bit", 6, 6, []byte{0b0100_0000, 2}, ErrCorrupt},
		{"zero under a set bit", 8, 8, []byte{1, 0}, ErrCorrupt},
		{"over-long zero under a set bit", 8, 8, []byte{1, 0x80, 0}, ErrCorrupt},
		{"value cut short", 8, 8, []byte{1, 0x80}, ErrTruncated},
		{"value missing", 8, 8, []byte{3, 2}, ErrTruncated},
		{"value past 64 bits", 8, 8, append([]byte{1}, append(bytes.Repeat([]byte{0xff}, 9), 2)...), ErrCorrupt},
		{"set bit past the destination", 8, 4, []byte{0b1000_0000, 2}, ErrCorrupt},
		{"more set bits than the destination", 8, 1, []byte{0b0000_0011, 2, 2}, ErrCorrupt},
	} {
		d := NewDecoder(c.raw)
		bitmap, _ := d.Bitmap(c.cells)
		d.SparseFixedsInto(bitmap, make([]fixed.Fixed, c.dst))
		if !errors.Is(d.Err(), c.want) {
			t.Errorf("%s: %v, want %v", c.name, d.Err(), c.want)
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

// BenchmarkSkipFixeds checks, and BenchmarkFixedsFill decodes, a vector of
// 8000 values, about one in ten non-zero ("sparse", a dense matrix's
// shape), and one of 1000 values, all non-zero and of three bytes or so
// ("units", the non-zero cells of a Fig. 4 outcome).
func BenchmarkSkipFixeds(b *testing.B) {
	for _, c := range fixedsBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := Decoder{buf: c.raw}
				d.SkipFixeds(c.n)
				if d.Finish() != nil {
					b.Fatal(d.Err())
				}
			}
		})
	}
}

func BenchmarkFixedsFill(b *testing.B) {
	for _, c := range fixedsBenchCases() {
		dst := make([]fixed.Fixed, c.n)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := Decoder{buf: c.raw}
				d.fixeds(dst)
				if d.Finish() != nil {
					b.Fatal(d.Err())
				}
			}
		})
	}
}

type fixedsBenchCase struct {
	name string
	n    int
	raw  []byte
}

func fixedsBenchCases() []fixedsBenchCase {
	rng := rand.New(rand.NewSource(1))
	units := make([]fixed.Fixed, 1000)
	for i := range units {
		units[i] = 1 + fixed.Fixed(rng.Int63n(int64(5*fixed.One)))
	}
	var e Encoder
	for _, f := range units {
		e.Fixed(f)
	}
	sparse := benchVector(8000)
	return []fixedsBenchCase{
		{"sparse", len(sparse), refEncodeFixedSlice(sparse)[2:]},
		{"units", len(units), e.Buffer()},
	}
}

// BenchmarkSparseFixedsInto fills the unit matrix of a Fig. 4 outcome,
// 1000 × 8 cells of which about one in ten is non-zero, from its bitmap and
// values.
func BenchmarkSparseFixedsInto(b *testing.B) {
	fs := benchVector(8000)
	var e Encoder
	e.SparseFixeds(fs)
	raw := e.Buffer()
	dst := make([]fixed.Fixed, len(fs))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(dst)
		d := Decoder{buf: raw}
		bitmap, _ := d.Bitmap(uint64(len(dst)))
		d.SparseFixedsInto(bitmap, dst)
		if d.Finish() != nil {
			b.Fatal(d.Err())
		}
	}
}
