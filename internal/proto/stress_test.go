package proto

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Stress: many concurrent rounds, blocks and instances over the same peers,
// with reordering jitter. Every message must reach exactly the receiver
// waiting on its tag; nothing may cross-talk or dangle. Run with -race.
func TestConcurrentRoundsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	hub := transport.NewHub(transport.LatencyModel{Jitter: 2 * time.Millisecond}, 5)
	t.Cleanup(func() { hub.Close() })
	ids := []wire.NodeID{1, 2, 3}
	peers := make([]*Peer, len(ids))
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = NewPeer(conn, ids)
		t.Cleanup(func(p *Peer) func() { return func() { p.Close() } }(peers[i]))
	}

	const (
		rounds    = 8
		instances = 6
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, len(peers)*rounds)
	for _, p := range peers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			var roundWG sync.WaitGroup
			for r := uint64(1); r <= rounds; r++ {
				roundWG.Add(1)
				go func(r uint64) {
					defer roundWG.Done()
					for inst := uint32(0); inst < instances; inst++ {
						tag := wire.Tag{Round: r, Block: wire.BlockTask, Instance: inst, Step: 1}
						payload := []byte(fmt.Sprintf("r%d-i%d-from%d", r, inst, p.Self()))
						if err := p.BroadcastProviders(tag, payload); err != nil {
							errCh <- err
							return
						}
						got, err := p.GatherAppend(ctx, tag, p.Providers(), nil)
						if err != nil {
							errCh <- err
							return
						}
						for i, v := range got {
							want := fmt.Sprintf("r%d-i%d-from%d", r, inst, p.Providers()[i])
							if string(v) != want {
								errCh <- fmt.Errorf("cross-talk: got %q want %q", v, want)
								return
							}
						}
					}
				}(r)
			}
			roundWG.Wait()
		}(p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Cleanup path: ending all rounds must not disturb anything.
	for _, p := range peers {
		p.EndRound(rounds)
	}
}

// Audit for the concurrent task scheduler: many goroutines of ONE round
// gather concurrently over the same peers — distinct instances, plus
// several waiters sharing the same (tag, sender) key — and everything
// resolves without cross-talk. Run with -race.
func TestConcurrentGathersSameRound(t *testing.T) {
	hub := transport.NewHub(transport.LatencyModel{Jitter: time.Millisecond}, 7)
	t.Cleanup(func() { hub.Close() })
	ids := []wire.NodeID{1, 2, 3}
	peers := make([]*Peer, len(ids))
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = NewPeer(conn, ids)
		t.Cleanup(func(p *Peer) func() { return func() { p.Close() } }(peers[i]))
	}

	const workers = 12
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errCh := make(chan error, len(peers)*(workers+3))
	var wg sync.WaitGroup
	for _, p := range peers {
		// One goroutine per instance: broadcast + gather within round 1.
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(p *Peer, w int) {
				defer wg.Done()
				tag := wire.Tag{Round: 1, Block: wire.BlockTask, Instance: uint32(w), Step: 1}
				payload := []byte(fmt.Sprintf("i%d-from%d", w, p.Self()))
				if err := p.BroadcastProviders(tag, payload); err != nil {
					errCh <- err
					return
				}
				got, err := p.GatherAppend(ctx, tag, p.Providers(), nil)
				if err != nil {
					errCh <- err
					return
				}
				for i, v := range got {
					if want := fmt.Sprintf("i%d-from%d", w, p.Providers()[i]); string(v) != want {
						errCh <- fmt.Errorf("cross-talk: got %q want %q", v, want)
						return
					}
				}
			}(p, w)
		}
		// Several goroutines waiting on the SAME key: all must see the one
		// payload.
		shared := wire.Tag{Round: 1, Block: wire.BlockTransfer, Instance: 999, Step: 1}
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(p *Peer) {
				defer wg.Done()
				v, err := p.Receive(ctx, shared, 2)
				if err != nil {
					errCh <- err
					return
				}
				if string(v) != "shared" {
					errCh <- fmt.Errorf("shared key: got %q", v)
				}
			}(p)
		}
	}
	sharedTag := wire.Tag{Round: 1, Block: wire.BlockTransfer, Instance: 999, Step: 1}
	for _, id := range ids {
		if err := peers[1].Send(id, sharedTag, []byte("shared")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for _, p := range peers {
		p.EndRound(1)
	}
}
