package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"unsafe"

	"distauction/internal/testalloc"
)

// The decoders that read bytes nobody has authenticated yet: the TCP read
// loop feeds every frame to DecodeSuperframeView before it checks the MAC.
// The envelope and superframe targets assert: no panic;
// the zero-copy decode and the copying decode agree; every view lies inside
// the input and cannot grow over its neighbours; decode → encode → decode
// is a fixed point. FuzzReadFrame holds the length prefix in front of them
// to an allocation bound.

// inside reports whether view aliases buf without room to grow past its
// own end.
func inside(view, buf []byte) bool {
	if len(view) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return p >= lo && p+uintptr(len(view)) <= lo+uintptr(len(buf)) && cap(view) == len(view)
}

// frameSeeds is encoder output plus the damage a network does to it.
func frameSeeds(frames ...[]byte) [][]byte {
	var seeds [][]byte
	for _, f := range frames {
		flipped := bytes.Clone(f)
		flipped[len(flipped)/2] ^= 0x40
		seeds = append(seeds, f, f[:len(f)/2], flipped, append(bytes.Clone(f), 0))
	}
	return append(seeds, nil, []byte{0xff, 0xff, 0xff, 0xff})
}

func seedEnvelopes() []Envelope {
	return []Envelope{
		{From: 1, To: 2, Tag: Tag{Round: 1, Block: BlockTask, Step: 1}},
		{From: 7, To: Broadcast, Tag: Tag{Round: 1 << 40, Block: BlockControl, Instance: JoinLane(3, 9), Step: 255},
			Payload: []byte("payload"), MAC: bytes.Repeat([]byte{0xab}, 32), LinkSeq: 300, LinkAck: 299},
		{From: 3, To: 4, Tag: Tag{Round: 5, Block: BlockLink, Step: 2}, Payload: []byte{0x85, 0x01}},
	}
}

func checkEnvelopeFrame(t *testing.T, b []byte) {
	view, err := DecodeEnvelopeView(b)
	copied, cerr := DecodeEnvelope(b)
	if (err == nil) != (cerr == nil) {
		t.Fatalf("view decode err %v, copying decode err %v", err, cerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(view, copied) {
		t.Fatalf("view decode %+v != copying decode %+v", view, copied)
	}
	if !inside(view.Payload, b) || !inside(view.MAC, b) {
		t.Fatalf("a view escapes the %d-byte input: payload %d, mac %d", len(b), len(view.Payload), len(view.MAC))
	}
	enc := view.Encode()
	again, err := DecodeEnvelope(enc)
	if err != nil {
		t.Fatalf("re-decode of own encoding: %v", err)
	}
	if !reflect.DeepEqual(again, copied) || !bytes.Equal(again.Encode(), enc) {
		t.Fatalf("decode→encode→decode moved: %+v then %+v", copied, again)
	}
}

func FuzzDecodeEnvelopeView(f *testing.F) {
	var frames [][]byte
	for _, e := range seedEnvelopes() {
		frames = append(frames, e.Encode())
	}
	for _, seed := range frameSeeds(frames...) {
		f.Add(seed)
	}
	f.Fuzz(checkEnvelopeFrame)
}

func checkSuperframe(t *testing.T, b []byte) {
	view, err := DecodeSuperframeView(b)
	copied, cerr := DecodeSuperframe(b)
	if (err == nil) != (cerr == nil) {
		t.Fatalf("view decode err %v, copying decode err %v", err, cerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(view, copied) {
		t.Fatalf("view decode %+v != copying decode %+v", view, copied)
	}
	if binary.BigEndian.Uint32(b) != SuperframeMarker {
		t.Fatal("decoded a superframe without its leading marker")
	}
	if !inside(view.MAC, b) {
		t.Fatalf("batch MAC view escapes the %d-byte input", len(b))
	}
	for i := range view.Envs {
		e := &view.Envs[i]
		if !inside(e.Payload, b) || !inside(e.MAC, b) {
			t.Fatalf("envelope %d: a view escapes the %d-byte input", i, len(b))
		}
		if e.From != view.From || e.To != view.To {
			t.Fatalf("envelope %d: addressed %d→%d inside a %d→%d frame", i, e.From, e.To, view.From, view.To)
		}
	}
	enc := view.Encode()
	again, err := DecodeSuperframe(enc)
	if err != nil {
		t.Fatalf("re-decode of own encoding: %v", err)
	}
	if !reflect.DeepEqual(again, copied) || !bytes.Equal(again.Encode(), enc) {
		t.Fatalf("decode→encode→decode moved: %+v then %+v", copied, again)
	}
	// What the batch MAC is checked over is a prefix of the frame as encoded.
	if signed, ok := SuperframeSignedView(enc, len(again.MAC)); !ok || !bytes.HasPrefix(enc, signed) {
		t.Fatalf("signed view of own encoding: ok=%v", ok)
	}
}

func FuzzDecodeSuperframeView(f *testing.F) {
	envs := seedEnvelopes()
	for i := range envs {
		envs[i].From, envs[i].To = 1, 2
	}
	one := Superframe{From: 1, To: 2, Envs: envs[:1]}
	all := Superframe{From: 1, To: 2, Envs: envs, MAC: bytes.Repeat([]byte{0xcd}, 32)}
	for _, seed := range frameSeeds(one.Encode(), all.Encode()) {
		f.Add(seed)
	}
	f.Fuzz(checkSuperframe)
}

// FuzzReadFrame feeds ReadFrame a stream. No prefix may make it allocate
// more than 4·len(stream) + frameChunk (a 4-byte prefix claiming
// MaxFrameLen once pinned 32 MiB), and a frame it returns is written back to
// exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	var hdr [4]byte
	for _, n := range []uint32{0, 5, frameChunk, frameChunk + 1, MaxFrameLen, MaxFrameLen + 1, ^uint32(0)} {
		binary.BigEndian.PutUint32(hdr[:], n)
		f.Add(bytes.Clone(hdr[:]))
	}
	for _, n := range []int{0, 5, frameChunk, frameChunk + 7, 2*frameChunk + 3} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, bytes.Repeat([]byte{0xa5}, n)); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		f.Add(full)
		f.Add(full[:len(full)/2])
		f.Add(append(bytes.Clone(full), full...))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var frame []byte
		var err error
		read := func() {
			r.Reset(stream)
			frame, err = ReadFrame(r)
		}
		if got, limit := testalloc.HeapBytes(read), 4*uint64(len(stream))+frameChunk; got > limit {
			t.Fatalf("%d-byte stream: ReadFrame allocated %d bytes, limit %d", len(stream), got, limit)
		}
		if err != nil {
			if frame != nil {
				t.Fatal("frame returned alongside an error")
			}
			if len(stream) == 0 && err != io.EOF {
				t.Fatalf("empty stream: %v, want io.EOF", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, frame); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), stream[:4+len(frame)]) {
			t.Fatalf("a %d-byte frame wrote back differently from how it was read", len(frame))
		}
		again, err := ReadFrame(&out)
		if err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("write → read moved the frame: err %v", err)
		}
	})
}
