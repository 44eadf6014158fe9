package taskgraph

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distauction/internal/proto"
)

// settleGoroutines polls until the goroutine count drops back to at most
// want, tolerating the runtime's lazy reaping.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d, want <= %d\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A group member that returns a mismatched result mid-graph must abort the
// round with ⊥ at every provider while a concurrently in-flight task of a
// disjoint group unwinds cleanly (its body is cancelled by the scheduler's
// abort watchdog), with no goroutine leaks — and the peers must still run a
// fresh round afterwards.
func TestMidGraphMismatchAbortsAndUnwinds(t *testing.T) {
	const m = 4
	peers := newPeers(t, m)
	all := providerIDs(m)
	g1, g2 := all[:2], all[2:]

	slowStarted := make(chan struct{}, m)
	mkGraph := func(left string) *Graph {
		g, err := New(all, 1, []Task{
			{ID: 1, Name: "root", Group: all, Run: constTask("base")},
			{ID: 2, Name: "left", Deps: []uint32{1}, Group: g1, Run: constTask(left)},
			{ID: 3, Name: "slow", Deps: []uint32{1}, Group: g2,
				Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
					// An in-flight task body: in the poisoned round the
					// scheduler's abort watchdog cancels it long before the
					// timer; in honest rounds it just takes a while.
					slowStarted <- struct{}{}
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(300 * time.Millisecond):
						return []byte("slow"), nil
					}
				}},
			{ID: 4, Name: "final", Deps: []uint32{2, 3}, Group: all,
				Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
					return append(append([]byte{}, tc.Inputs[2]...), tc.Inputs[3]...), nil
				}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	honest := mkGraph("left")
	lying := mkGraph("WRONG")

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i, p := range peers {
		g := honest
		if i == 1 { // provider 2, member of g1, computes a mismatched result
			g = lying
		}
		wg.Add(1)
		go func(i int, p *proto.Peer, g *Graph) {
			defer wg.Done()
			_, errs[i] = Execute(ctx, p, 1, g, Options{})
		}(i, p, g)
	}
	wg.Wait()

	for i := range errs {
		if !errors.Is(errs[i], proto.ErrAborted) {
			t.Errorf("provider %d: got %v, want ⊥", i+1, errs[i])
		}
	}
	if len(slowStarted) == 0 {
		t.Error("the slow task never started; the deviation was not concurrent with in-flight work")
	}
	settleGoroutines(t, before)

	// The unwind must be clean: a fresh round on the same peers succeeds.
	outs, errs2 := executeAll(t, peers, 2, honest)
	t.Cleanup(func() {
		for _, p := range peers {
			p.EndRound(2)
		}
	})
	// Drain the slow-task markers from round 2.
	for len(slowStarted) > 0 {
		<-slowStarted
	}
	for i, err := range errs2 {
		if err != nil {
			t.Fatalf("round 2 provider %d: %v", i+1, err)
		}
	}
	for i, out := range outs {
		if string(out) != "leftslow" {
			t.Errorf("round 2 provider %d: %q, want %q", i+1, out, "leftslow")
		}
	}
}

// Concurrent rounds are isolated: with several rounds of the same graph in
// flight on the same peers, a mid-graph mismatch in one round yields ⊥ for
// exactly that round while the others complete, and nothing leaks.
func TestConcurrentRoundsAbortIsolation(t *testing.T) {
	const m = 4
	const rounds = 4
	const poisoned = 2
	peers := newPeers(t, m)
	all := providerIDs(m)
	g1 := all[:2]

	mkGraph := func(left string) *Graph {
		g, err := New(all, 1, []Task{
			{ID: 1, Name: "root", Group: all, UsesCoin: true, CoinDraws: 1,
				Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
					seed, err := tc.Coin()
					if err != nil {
						return nil, err
					}
					return []byte(fmt.Sprintf("r%d", seed%97)), nil
				}},
			{ID: 2, Name: "mid", Deps: []uint32{1}, Group: g1, Run: constTask(left)},
			{ID: 3, Name: "final", Deps: []uint32{1, 2}, Group: all,
				Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
					return append(append([]byte{}, tc.Inputs[1]...), tc.Inputs[2]...), nil
				}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	honest := mkGraph("ok")
	lying := mkGraph("EVIL")

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make([][]error, rounds+1)
	outs := make([][][]byte, rounds+1)
	var wg sync.WaitGroup
	for r := 1; r <= rounds; r++ {
		errs[r] = make([]error, m)
		outs[r] = make([][]byte, m)
		for i, p := range peers {
			g := honest
			if r == poisoned && i == 1 {
				g = lying
			}
			wg.Add(1)
			go func(r, i int, p *proto.Peer, g *Graph) {
				defer wg.Done()
				outs[r][i], errs[r][i] = Execute(ctx, p, uint64(r), g, Options{})
			}(r, i, p, g)
		}
	}
	wg.Wait()

	for r := 1; r <= rounds; r++ {
		for i := 0; i < m; i++ {
			if r == poisoned {
				if !errors.Is(errs[r][i], proto.ErrAborted) {
					t.Errorf("round %d provider %d: got %v, want ⊥", r, i+1, errs[r][i])
				}
				continue
			}
			if errs[r][i] != nil {
				t.Errorf("round %d provider %d: %v", r, i+1, errs[r][i])
				continue
			}
			if string(outs[r][i]) != string(outs[r][0]) {
				t.Errorf("round %d: providers disagree", r)
			}
		}
	}
	settleGoroutines(t, before)
}
