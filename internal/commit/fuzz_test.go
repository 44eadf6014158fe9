package commit

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// FuzzDecodeOpeningView feeds arbitrary bytes to the opening decoder,
// which reads every provider's reveal in a commit → echo → reveal exchange.
// It never panics; it allocates at most 1 KiB whatever the input's size
// (salt and value are views into the input, so only a failure's error
// allocates); and encode → decode → encode is a fixed point.
func FuzzDecodeOpeningView(f *testing.F) {
	for _, op := range []Opening{
		{},
		{Salt: bytes.Repeat([]byte{7}, SaltSize), Value: []byte("share-and-digest")},
		{Salt: []byte{1}, Value: bytes.Repeat([]byte{0xee}, 200)},
	} {
		enc := EncodeOpening(op)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(bytes.Clone(enc), 0))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		var op Opening
		var err error
		// The least of three measured calls: the counter is process-wide,
		// and other goroutines (the fuzzing engine's among them) can only
		// add to it.
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			op, err = DecodeOpeningView(b)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), least)
		}
		if err != nil {
			return
		}
		enc := EncodeOpening(op)
		again, err := DecodeOpeningView(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding: %v", err)
		}
		if !bytes.Equal(EncodeOpening(again), enc) {
			t.Fatal("encode → decode → encode moved")
		}
	})
}
