package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/testleak"
	"distauction/internal/wire"
)

// TestHubFaultsResilientComposition is the canonical chaos stack — session
// traffic over Resilient(Hub) — with drop, dup and delay all injected. The
// link layer must hide every injected fault: exactly-once delivery (order
// is the protocol layer's problem, not the link's).
func TestHubFaultsResilientComposition(t *testing.T) {
	hub := NewHub(LatencyModel{}, 7)
	hub.SetFaults(Faults{
		Drop:      0.05,
		Dup:       0.05,
		DelayProb: 0.10,
		DelayMin:  time.Millisecond,
		DelayMax:  3 * time.Millisecond,
	})
	rnet := Resilient(hub, fastLink())
	defer rnet.Close()

	c1, err := rnet.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rnet.Attach(2)
	if err != nil {
		t.Fatal(err)
	}

	const count = 500
	var mu sync.Mutex
	got := make([]int, 0, count)
	done := make(chan struct{})
	var once sync.Once
	c2.SetHandler(func(env wire.Envelope) {
		var v int
		fmt.Sscanf(string(env.Payload), "%d", &v)
		mu.Lock()
		got = append(got, v)
		n := len(got)
		mu.Unlock()
		if n == count {
			once.Do(func() { close(done) })
		}
	})

	for i := 0; i < count; i++ {
		if err := c1.Send(dataEnv(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("timed out: got %d/%d envelopes through the chaos stack", n, count)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := make([]int, count)
	for _, v := range got {
		if v < 0 || v >= count {
			t.Fatalf("got envelope %d, outside [0,%d)", v, count)
		}
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("envelope %d delivered %d times (fault leaked through the link layer)", v, n)
		}
	}
	st := hub.FaultStats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 {
		t.Errorf("faults injected %+v: each kind must fire for the test to prove anything", st)
	}
	t.Logf("faults injected: %+v; link stats: %+v", st, c1.(HealthReporter).LinkStats())
}

// TestHubPartition: a one-way partition silences the link in that
// direction until lifted; the link layer replays the backlog once it heals.
func TestHubPartition(t *testing.T) {
	hub := NewHub(LatencyModel{}, 3)
	rnet := Resilient(hub, fastLink())
	defer rnet.Close()

	c1, _ := rnet.Attach(1)
	c2, _ := rnet.Attach(2)

	var mu sync.Mutex
	var got []int
	c2.SetHandler(func(env wire.Envelope) {
		var v int
		fmt.Sscanf(string(env.Payload), "%d", &v)
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})

	hub.SetPartition(1, 2, true)
	for i := 0; i < 10; i++ {
		if err := c1.Send(dataEnv(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("partition leaked %d envelopes", n)
	}

	hub.SetPartition(1, 2, false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n = len(got)
		mu.Unlock()
		if n == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after heal: got %d/10 envelopes", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("post-heal position %d: got %d", i, v)
		}
	}
}

// TestHubKillBlackout: Kill opens a blackout (both directions dark), then
// traffic resumes and the link layer recovers the gap.
func TestHubKillBlackout(t *testing.T) {
	hub := NewHub(LatencyModel{}, 5)
	rnet := Resilient(hub, fastLink())
	defer rnet.Close()

	c1, _ := rnet.Attach(1)
	c2, _ := rnet.Attach(2)

	const count = 50
	var mu sync.Mutex
	got := make(map[int]int)
	done := make(chan struct{})
	var once sync.Once
	c2.SetHandler(func(env wire.Envelope) {
		var v int
		fmt.Sscanf(string(env.Payload), "%d", &v)
		mu.Lock()
		got[v]++
		n := len(got)
		mu.Unlock()
		if n == count {
			once.Do(func() { close(done) })
		}
	})

	for i := 0; i < count; i++ {
		if i == count/2 {
			hub.Kill(2)
		}
		if err := c1.Send(dataEnv(1, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("timed out: %d/%d distinct envelopes after kill", n, count)
	}
	mu.Lock()
	defer mu.Unlock()
	for v, c := range got {
		if c != 1 {
			t.Fatalf("envelope %d delivered %d times", v, c)
		}
	}
	if st := hub.FaultStats(); st.Kills != 1 || st.Dropped == 0 {
		t.Errorf("fault stats %+v, want one kill and the blackout's drops", st)
	}
}

// TestHubDuplicateBatchGetsItsOwnCopy: the batch handler contract lets a
// receiver mutate the slice it is handed (the market mux strips lanes in
// place), so a duplicated superframe must not be re-sent from the slice the
// first delivery's handler has just rewritten. The faultnet wrapper this
// fault model replaced did exactly that: its duplicate arrived as [7 7 0 0]
// instead of [7 7 7 7].
func TestHubDuplicateBatchGetsItsOwnCopy(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	hub.SetFaults(Faults{Dup: 1})
	a, _ := hub.Attach(1)
	b, _ := hub.Attach(2)
	var seen []uint32
	b.SetHandler(func(wire.Envelope) { t.Error("superframe split into single envelopes") })
	b.SetBatchHandler(func(envs []wire.Envelope) {
		for i := range envs {
			seen = append(seen, envs[i].Tag.Instance)
			envs[i].Tag.Instance = 0
		}
	})
	batch := []wire.Envelope{dataEnv(1, 2, 0), dataEnv(1, 2, 1)}
	for i := range batch {
		batch[i].Tag.Instance = 7
	}
	if err := a.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{7, 7, 7, 7}; !slices.Equal(seen, want) {
		t.Fatalf("instances seen over the superframe and its duplicate: %v, want %v", seen, want)
	}
	if st := hub.FaultStats(); st.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", st.Duplicated)
	}
}

// TestHubCloseDropsFaultDelayedFrames: fault delays wait on the delivery
// scheduler like latency-model delays, so Close drops them at once. The
// faultnet wrapper this fault model replaced held one timer per delayed
// frame and waited for them all in Close, up to DelayMax (2 s here).
func TestHubCloseDropsFaultDelayedFrames(t *testing.T) {
	testleak.Check(t, func() {
		h := NewHub(LatencyModel{}, 1)
		h.SetFaults(Faults{DelayProb: 1, DelayMin: time.Second, DelayMax: 2 * time.Second})
		a, _ := h.Attach(1)
		b, _ := h.Attach(2)
		var calls atomic.Int64
		b.SetHandler(func(wire.Envelope) { calls.Add(1) })
		const pending = 10000
		for i := 0; i < pending; i++ {
			if err := a.Send(env(1, 2, "later")); err != nil {
				t.Fatal(err)
			}
		}
		if queued := len(pendingHops(h)); queued != pending {
			t.Fatalf("%d deliveries pending, want %d", queued, pending)
		}
		start := time.Now()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("Close with %d fault-delayed frames pending took %v, want < 100ms", pending, took)
		}
		if left := len(pendingHops(h)); left != 0 {
			t.Errorf("%d deliveries still pending after Close, want every shard's dropped", left)
		}
		time.Sleep(20 * time.Millisecond)
		if n := calls.Load(); n != 0 {
			t.Errorf("%d handler calls after Close returned", n)
		}
	})
}

// TestHubFaultStreamPerSender: a sender's drop pattern is a function of
// the Hub's seed and its own sends alone — a second sender flooding the
// same Hub concurrently leaves it unchanged. (The faultnet wrapper this
// fault model replaced kept per-node streams too; this pins that the fold
// kept them.)
func TestHubFaultStreamPerSender(t *testing.T) {
	const sends = 2000
	arrived := func(flood bool) []int {
		hub := NewHub(LatencyModel{}, 11)
		defer hub.Close()
		hub.SetFaults(Faults{Drop: 0.3})
		a, _ := hub.Attach(1)
		b, _ := hub.Attach(2)
		c, _ := hub.Attach(3)
		var mu sync.Mutex
		var got []int
		b.SetHandler(func(env wire.Envelope) {
			if env.From == 1 {
				mu.Lock()
				got = append(got, int(env.Tag.Round))
				mu.Unlock()
			}
		})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if flood {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := c.Send(dataEnv(3, 2, i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < sends; i++ {
			if err := a.Send(dataEnv(1, 2, i)); err != nil {
				t.Fatal(err)
			}
			if i%64 == 0 {
				time.Sleep(10 * time.Microsecond) // let the flood interleave
			}
		}
		close(stop)
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
	alone, flooded := arrived(false), arrived(true)
	if len(alone) == sends || len(alone) == 0 {
		t.Fatalf("%d of %d sends arrived: the drop profile did not bite", len(alone), sends)
	}
	if !slices.Equal(alone, flooded) {
		t.Fatalf("node 1's arrivals differ with a second sender flooding: %d alone, %d flooded", len(alone), len(flooded))
	}
}
