package transport

import (
	"fmt"
	"sync"
	"testing"

	"distauction/internal/wire"
)

// TestCoalescerBatchRecycleWaves drives the coalescer in waves of
// concurrent sends with quiescence between waves, so pendingBatch objects
// return to the per-peer free list and get reused across waves. A recycled
// batch must come back clean: a stale envelope slot, a stale error, or a
// WaitGroup that reuses before the previous wave's waiters returned would
// show up as a lost, duplicated or corrupted payload — and under -race as
// a reported race on the recycled object.
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
		// Joining the wave before starting the next guarantees every batch
		// was released (all waiters returned), so the next wave hits the
		// free list, not fresh allocations.
		wg.Wait()
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
