package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"distauction/internal/fixed"
)

func TestEncodeDecodeScalars(t *testing.T) {
	e := NewEncoder(64)
	e.Uvarint(0)
	e.Uvarint(math.MaxUint64)
	e.Varint(-1)
	e.Varint(math.MinInt64)
	e.Uint8(0xAB)
	e.Uint32(0xDEADBEEF)
	e.Uint64(0x0102030405060708)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{1, 2, 3})
	e.String("héllo")
	e.Fixed(fixed.MustFloat(1.25))
	e.FixedSlice([]fixed.Fixed{1, -2, 3})

	d := NewDecoder(e.Buffer())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.Varint(); got != -1 {
		t.Errorf("varint = %d", got)
	}
	if got := d.Varint(); got != math.MinInt64 {
		t.Errorf("varint = %d", got)
	}
	if got := d.Uint8(); got != 0xAB {
		t.Errorf("uint8 = %x", got)
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Errorf("uint32 = %x", got)
	}
	if got := d.Uint64(); got != 0x0102030405060708 {
		t.Errorf("uint64 = %x", got)
	}
	if got := d.Bool(); !got {
		t.Error("bool = false")
	}
	if got := d.Bool(); got {
		t.Error("bool = true")
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if got := d.String(); got != "héllo" {
		t.Errorf("string = %q", got)
	}
	if got := d.Fixed(); got != fixed.MustFloat(1.25) {
		t.Errorf("fixed = %v", got)
	}
	fs := d.FixedSlice()
	if len(fs) != 3 || fs[0] != 1 || fs[1] != -2 || fs[2] != 3 {
		t.Errorf("fixedslice = %v", fs)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x01}) // one byte: not enough for uint32
	_ = d.Uint32()
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	// Every later read must return zero values without panicking.
	if v := d.Uvarint(); v != 0 {
		t.Errorf("after error, uvarint = %d", v)
	}
	if b := d.Bytes(); b != nil {
		t.Errorf("after error, bytes = %v", b)
	}
	if err := d.Finish(); err == nil {
		t.Error("finish should report sticky error")
	}
}

func TestDecoderTrailing(t *testing.T) {
	e := NewEncoder(8)
	e.Uvarint(7)
	e.Uint8(9)
	d := NewDecoder(e.Buffer())
	if got := d.Uvarint(); got != 7 {
		t.Fatalf("uvarint = %d", got)
	}
	if err := d.Finish(); err == nil {
		t.Error("expected ErrTrailing")
	}
}

func TestDecoderBadBool(t *testing.T) {
	d := NewDecoder([]byte{7})
	_ = d.Bool()
	if d.Err() == nil {
		t.Error("bool byte 7 should be corrupt")
	}
}

func TestDecoderHugeLength(t *testing.T) {
	e := NewEncoder(16)
	e.Uvarint(uint64(MaxBytesLen) + 1)
	d := NewDecoder(e.Buffer())
	if b := d.Bytes(); b != nil || d.Err() == nil {
		t.Error("oversized length must fail")
	}
}

func TestDecoderFixedSliceBomb(t *testing.T) {
	// A tiny input claiming a billion elements must fail before allocating.
	e := NewEncoder(16)
	e.Uvarint(1 << 30)
	d := NewDecoder(e.Buffer())
	if fs := d.FixedSlice(); fs != nil || d.Err() == nil {
		t.Error("fixedslice bomb must fail")
	}
}

// Property: arbitrary scalar tuples round-trip exactly.
func TestQuickScalarRoundTrip(t *testing.T) {
	f := func(u uint64, v int64, b bool, p []byte, s string) bool {
		e := NewEncoder(64)
		e.Uvarint(u)
		e.Varint(v)
		e.Bool(b)
		e.Bytes(p)
		e.String(s)
		d := NewDecoder(e.Buffer())
		gu := d.Uvarint()
		gv := d.Varint()
		gb := d.Bool()
		gp := d.Bytes()
		gs := d.String()
		if err := d.Finish(); err != nil {
			return false
		}
		return gu == u && gv == v && gb == b && bytes.Equal(gp, p) && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary garbage never panics.
func TestQuickDecodeGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		d := NewDecoder(raw)
		_ = d.Uvarint()
		_ = d.Bytes()
		_ = d.FixedSlice()
		_ = d.Uint64()
		_ = d.Finish()
		_, _ = DecodeEnvelope(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBytesViewAliasesInput(t *testing.T) {
	e := NewEncoder(16)
	e.Bytes([]byte("abc"))
	buf := e.Buffer()
	d := NewDecoder(buf)
	v := d.BytesView()
	if string(v) != "abc" {
		t.Fatalf("view = %q", v)
	}
	buf[1] = 'X' // views must alias, copies must not
	if string(v) != "Xbc" {
		t.Error("BytesView returned a copy")
	}
	d2 := NewDecoder(buf)
	c := d2.Bytes()
	buf[1] = 'Y'
	if string(c) != "Xbc" {
		t.Error("Bytes returned a view")
	}
}

func TestStringViewAndString(t *testing.T) {
	e := NewEncoder(16)
	e.String("hello")
	e.String("")
	d := NewDecoder(e.Buffer())
	if got := d.StringView(); got != "hello" {
		t.Errorf("StringView = %q", got)
	}
	if got := d.StringView(); got != "" {
		t.Errorf("empty StringView = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	// Error paths return zero values.
	bad := NewDecoder([]byte{0xFF})
	if got := bad.StringView(); got != "" || bad.Err() == nil {
		t.Error("StringView on garbage must fail empty")
	}
	bad2 := NewDecoder([]byte{0xFF})
	if got := bad2.String(); got != "" || bad2.Err() == nil {
		t.Error("String on garbage must fail empty")
	}
}

func TestEncoderPoolReuse(t *testing.T) {
	e := GetEncoder(64)
	e.String("payload")
	first := e.Buffer()
	if len(first) == 0 {
		t.Fatal("empty encode")
	}
	PutEncoder(e)
	e2 := GetEncoder(16)
	if e2.Len() != 0 {
		t.Error("pooled encoder not reset")
	}
	e2.Uvarint(7)
	d := NewDecoder(e2.Buffer())
	if got := d.Uvarint(); got != 7 {
		t.Errorf("pooled encoder produced %d", got)
	}
	PutEncoder(e2)
	PutEncoder(nil) // must not panic
}

func TestWriteFrameToMatchesWriteFrame(t *testing.T) {
	var a, b bytes.Buffer
	payload := []byte("framed-payload")
	if err := WriteFrame(&a, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameTo(&b, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteFrameTo encoding differs from WriteFrame")
	}
	if err := WriteFrameTo(&b, make([]byte, MaxFrameLen+1)); err == nil {
		t.Error("oversized frame must fail")
	}
}

func TestDecodeEnvelopeViewAliasesInput(t *testing.T) {
	env := Envelope{
		From: 1, To: 2,
		Tag:     Tag{Round: 3, Block: BlockTask, Instance: 4, Step: 5},
		Payload: []byte("payload"), MAC: []byte("mac"),
	}
	raw := env.Encode()
	got, err := DecodeEnvelopeView(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, env.Payload) || !bytes.Equal(got.MAC, env.MAC) {
		t.Fatal("view decode mismatch")
	}
	raw[len(raw)-len("mac")-len("payload")-1] ^= 0xFF // mutate payload region
	if bytes.Equal(got.Payload, env.Payload) {
		t.Error("DecodeEnvelopeView copied the payload")
	}
}

func TestEnvelopeEncodeToMatchesEncode(t *testing.T) {
	env := Envelope{
		From: 9, To: 8,
		Tag:     Tag{Round: 7, Block: BlockCoin, Instance: 6, Step: 5},
		Payload: []byte("p"), MAC: []byte("m"),
	}
	enc := GetEncoder(env.EncodedSize())
	env.EncodeTo(enc)
	if !bytes.Equal(enc.Buffer(), env.Encode()) {
		t.Error("EncodeTo differs from Encode")
	}
	PutEncoder(enc)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := Envelope{
		From:    3,
		To:      Broadcast,
		Tag:     Tag{Round: 42, Block: BlockCoin, Instance: 7, Step: 2},
		Payload: []byte("payload"),
		MAC:     []byte{0xAA, 0xBB},
	}
	got, err := DecodeEnvelope(env.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.From != env.From || got.To != env.To || got.Tag != env.Tag {
		t.Errorf("header mismatch: %+v vs %+v", got, env)
	}
	if !bytes.Equal(got.Payload, env.Payload) || !bytes.Equal(got.MAC, env.MAC) {
		t.Error("payload/mac mismatch")
	}
}

func TestEnvelopeSignedBytesExcludesMAC(t *testing.T) {
	a := Envelope{From: 1, To: 2, Tag: Tag{Round: 1, Block: BlockTask}, Payload: []byte("x"), MAC: []byte("m1")}
	b := a
	b.MAC = []byte("m2")
	if !bytes.Equal(a.SignedBytes(), b.SignedBytes()) {
		t.Error("SignedBytes must not cover the MAC")
	}
	c := a
	c.Payload = []byte("y")
	if bytes.Equal(a.SignedBytes(), c.SignedBytes()) {
		t.Error("SignedBytes must cover the payload")
	}
}

func TestEnvelopeRejectsBadBlock(t *testing.T) {
	env := Envelope{From: 1, To: 2, Tag: Tag{Block: BlockID(200)}, Payload: nil}
	if _, err := DecodeEnvelope(env.Encode()); err == nil {
		t.Error("invalid block id must be rejected")
	}
}

// Property: envelopes round-trip for arbitrary field values.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	f := func(from, to uint32, round uint64, inst uint32, step uint8, payload, mac []byte) bool {
		env := Envelope{
			From:    NodeID(from),
			To:      NodeID(to),
			Tag:     Tag{Round: round, Block: BlockTransfer, Instance: inst, Step: step},
			Payload: payload,
			MAC:     mac,
		}
		got, err := DecodeEnvelope(env.Encode())
		if err != nil {
			return false
		}
		return got.From == env.From && got.To == env.To && got.Tag == env.Tag &&
			bytes.Equal(got.Payload, env.Payload) && bytes.Equal(got.MAC, env.MAC)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(""), []byte("a"), bytes.Repeat([]byte("x"), 100_000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("end of stream: got %v, want io.EOF", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame must fail")
	}
	// Truncated mid-header too.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("truncated header must fail")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversized frame header must fail")
	}
}

func TestTagString(t *testing.T) {
	tag := Tag{Round: 1, Block: BlockCoin, Instance: 2, Step: 3}
	if got := tag.String(); got != "r1/coin/i2/s3" {
		t.Errorf("tag string = %q", got)
	}
	if got := BlockID(99).String(); got != "block(99)" {
		t.Errorf("unknown block string = %q", got)
	}
}

func BenchmarkEnvelopeEncode(b *testing.B) {
	env := Envelope{
		From:    1,
		To:      2,
		Tag:     Tag{Round: 9, Block: BlockTask, Instance: 3, Step: 1},
		Payload: bytes.Repeat([]byte("p"), 1024),
	}
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		_ = env.Encode()
	}
}

// BenchmarkEnvelopeEncodeTo is the TCP send path's encode
// (transport.TCPNode.Send): a pooled encoder sized by EncodedSize, EncodeTo,
// then PutEncoder. Unlike Envelope.Encode it goes through encoderPool.
func BenchmarkEnvelopeEncodeTo(b *testing.B) {
	env := Envelope{
		From:    1,
		To:      2,
		Tag:     Tag{Round: 9, Block: BlockTask, Instance: 3, Step: 1},
		Payload: bytes.Repeat([]byte("p"), 1024),
	}
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := GetEncoder(env.EncodedSize())
		env.EncodeTo(enc)
		PutEncoder(enc)
	}
}

func BenchmarkEnvelopeDecode(b *testing.B) {
	env := Envelope{
		From:    1,
		To:      2,
		Tag:     Tag{Round: 9, Block: BlockTask, Instance: 3, Step: 1},
		Payload: bytes.Repeat([]byte("p"), 1024),
	}
	raw := env.Encode()
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(raw); err != nil {
			b.Fatal(err)
		}
	}
}
