package faultnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"distauction/internal/transport"
	"distauction/internal/wire"
)

func fastLink() transport.ResilientConfig {
	return transport.ResilientConfig{
		HeartbeatEvery: 10 * time.Millisecond,
		ResendAfter:    20 * time.Millisecond,
		SuspectAfter:   4,
		DeadAfter:      12,
	}
}

func dataEnv(from, to wire.NodeID, i int) wire.Envelope {
	return wire.Envelope{
		From:    from,
		To:      to,
		Tag:     wire.Tag{Round: uint64(i), Block: wire.BlockTask, Step: 1},
		Payload: []byte(fmt.Sprintf("%d", i)),
	}
}

// TestFaultnetResilientComposition is the canonical chaos stack — session
// traffic over Resilient(faultnet.Wrap(Hub)) — with drop, dup and delay all
// enabled. The ARQ layer must hide every injected fault: exactly-once
// delivery (order is the protocol layer's problem, not the link's).
func TestFaultnetResilientComposition(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 7)
	defer hub.Close()
	net := Wrap(hub, Config{
		Seed: 7,
		Default: Profile{
			Drop:      0.05,
			Dup:       0.05,
			DelayProb: 0.10,
			DelayMin:  time.Millisecond,
			DelayMax:  3 * time.Millisecond,
		},
	})
	rnet := transport.Resilient(net, fastLink())
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
			t.Fatalf("envelope %d delivered %d times (fault leaked through ARQ)", v, n)
		}
	}
	st := net.FaultStats()
	if st.Dropped == 0 && st.Duplicated == 0 && st.Delayed == 0 {
		t.Error("fault injector injected nothing — test proved nothing")
	}
	t.Logf("faults injected: %+v; link stats: %+v", st, c1.(transport.HealthReporter).LinkStats())
}

// TestFaultnetPartition: a one-way partition silences the link in that
// direction until lifted; ARQ replays the backlog once it heals.
func TestFaultnetPartition(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 3)
	defer hub.Close()
	net := Wrap(hub, Config{Seed: 3})
	rnet := transport.Resilient(net, fastLink())
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

	net.SetPartition(1, 2, true)
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

	net.SetPartition(1, 2, false)
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

// TestFaultnetKillBlackout: Kill on a hub-backed conn opens a blackout
// window (both directions dark), then traffic resumes and ARQ recovers
// the gap.
func TestFaultnetKillBlackout(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{}, 5)
	defer hub.Close()
	net := Wrap(hub, Config{Seed: 5, Blackout: 40 * time.Millisecond})
	rnet := transport.Resilient(net, fastLink())
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
			net.Kill(2)
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
	if net.FaultStats().Kills == 0 {
		t.Error("kill not counted")
	}
}
