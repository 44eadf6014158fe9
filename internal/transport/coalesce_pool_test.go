package transport

import (
	"fmt"
	"sync"
	"testing"

	"distauction/internal/wire"
)

// TestCoalescerBatchRecycleWaves drives the coalescer in waves of
// concurrent sends with quiescence between waves, so each destination's
// two batch slices (open and spare) are swapped and reused across waves.
// A recycled slice must come back clean: a stale envelope slot, or a slice
// reused while its ship is still reading it, would show up as a lost,
// duplicated or corrupted payload — and under -race as a reported race on
// the recycled slice.
func TestCoalescerBatchRecycleWaves(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	c1, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := hub.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[string]int{}
	count := func(env wire.Envelope) {
		mu.Lock()
		got[string(env.Payload)]++
		mu.Unlock()
	}
	c2.SetBatchHandler(func(envs []wire.Envelope) {
		for _, env := range envs {
			count(env)
		}
	})
	c2.SetHandler(count)

	co := NewCoalescer(c1)
	const (
		waves   = 25
		senders = 8
	)
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(w, s int) {
				defer wg.Done()
				env := batchEnv(1, 2, uint64(w+1), fmt.Sprintf("w%d-s%d", w, s))
				env.Tag.Instance = uint32(s + 1)
				if err := co.Send(env); err != nil {
					t.Errorf("wave %d sender %d: %v", w, s, err)
				}
			}(w, s)
		}
		// Joining the wave and its flush before starting the next
		// guarantees every batch shipped, so the next wave appends to the
		// recycled slices, not fresh allocations.
		wg.Wait()
		co.Drain()
	}
	mu.Lock()
	defer mu.Unlock()
	const n = waves * senders
	if len(got) != n {
		t.Fatalf("received %d distinct payloads, want %d", len(got), n)
	}
	for p, c := range got {
		if c != 1 {
			t.Fatalf("payload %q delivered %d times", p, c)
		}
	}
	if st := co.Stats(); st.Envelopes != n {
		t.Fatalf("stats count %d envelopes, want %d", st.Envelopes, n)
	}
}
