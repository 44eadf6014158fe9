package consensus

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"distauction/internal/wire"
)

// allocated returns the bytes one call of f allocates: the least of three
// measured calls, since the counter is process-wide and other goroutines
// (the fuzzing engine's among them) can only add to it.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// aliases reports whether v shares memory with b.
func aliases(v, b []byte) bool {
	if len(v) == 0 || len(b) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return p >= lo && p < lo+uintptr(len(b))
}

// FuzzDecodeProposal feeds arbitrary bytes to the fallback's vector
// decoder, which reads a peer's full proposal on the dispute path. It never
// panics; it allocates at most 32 bytes per input byte plus 1 KiB (one
// slice header per slot, and a slot costs at least its one-byte length
// prefix, plus one arena no longer than the input, plus a failure's
// error); the values it returns never
// alias the input, which the router may reclaim; and encode → decode →
// encode is a fixed point.
func FuzzDecodeProposal(f *testing.F) {
	for _, p := range []proposal{
		{},
		{share: 42, values: [][]byte{[]byte("bid-a"), nil, []byte("bid-c")}},
		{share: 1<<64 - 1, values: [][]byte{bytes.Repeat([]byte{0xab}, 300)}},
	} {
		enc := encodeProposal(p)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	bomb := wire.NewEncoder(16)
	bomb.Uint64(1)
	bomb.Uvarint(MaxSlots + 1)
	f.Add(bomb.Buffer())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var p proposal
		var err error
		if n := allocated(func() { p, err = decodeProposal(b) }); n > 32*uint64(len(b))+1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		for i, v := range p.values {
			if aliases(v, b) {
				t.Fatalf("slot %d aliases the input", i)
			}
		}
		enc := encodeProposal(p)
		again, err := decodeProposal(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding: %v", err)
		}
		if !bytes.Equal(encodeProposal(again), enc) {
			t.Fatal("encode → decode → encode moved")
		}
	})
}
