package taskgraph

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"distauction/internal/prng"
	"distauction/internal/proto"
	"distauction/internal/wire"
)

// Property: for randomly generated layered DAGs with random (valid) group
// assignments, execution agrees at every provider and equals the obvious
// sequential evaluation of the same graph.
func TestQuickRandomGraphAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up clusters")
	}
	const m, k = 4, 1
	all := providerIDs(m)

	for seed := uint64(1); seed <= 8; seed++ {
		rng := prng.New(seed)

		// Build a layered graph: a root at all providers, 1..3 middle tasks
		// at random groups, a final gather at all providers.
		middle := 1 + rng.Intn(3)
		tasks := []Task{{
			ID: 1, Name: "root", Group: all,
			Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
				return []byte("root"), nil
			},
		}}
		finalDeps := []uint32{1}
		for i := 0; i < middle; i++ {
			id := uint32(2 + i)
			// Random contiguous group of size ≥ k+1.
			size := k + 1 + rng.Intn(m-k-1)
			start := rng.Intn(m - size + 1)
			group := all[start : start+size]
			label := fmt.Sprintf("mid-%d", id)
			tasks = append(tasks, Task{
				ID: id, Name: label, Deps: []uint32{1}, Group: group,
				Run: func(label string) TaskFunc {
					return func(ctx context.Context, tc *TaskContext) ([]byte, error) {
						return append(append([]byte{}, tc.Inputs[1]...), []byte("+"+label)...), nil
					}
				}(label),
			})
			finalDeps = append(finalDeps, id)
		}
		tasks = append(tasks, Task{
			ID: uint32(2 + middle), Name: "final", Deps: finalDeps, Group: all,
			Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
				var out []byte
				for _, d := range finalDeps {
					out = append(out, tc.Inputs[d]...)
				}
				return out, nil
			},
		})

		g, err := New(all, k, tasks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Expected value by direct sequential evaluation.
		want := []byte("root")
		for i := 0; i < middle; i++ {
			want = append(want, []byte(fmt.Sprintf("root+mid-%d", 2+i))...)
		}

		peers := newPeers(t, m)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		outs := make([][]byte, m)
		errs := make([]error, m)
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func(i int, p *proto.Peer) {
				defer wg.Done()
				outs[i], errs[i] = Execute(ctx, p, seed, g, Options{})
			}(i, p)
		}
		wg.Wait()
		cancel()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d peer %d: %v", seed, i, err)
			}
		}
		for i := range outs {
			if string(outs[i]) != string(want) {
				t.Fatalf("seed %d peer %d: got %q want %q", seed, i, outs[i], want)
			}
		}
	}
}

var _ = wire.NodeID(0) // keep the import when the helper moves

// stubCoins is a deterministic CoinSource: the seed is a pure function of
// (round, instance), so a distributed execution and the local sequential
// reference evaluation draw identical randomness and must produce
// byte-identical outputs.
type stubCoins struct{ round uint64 }

func (stubCoins) Prefetch(context.Context, ...uint32) {}
func (s stubCoins) Seed(_ context.Context, instance uint32) (uint64, error) {
	var buf [12]byte
	binary.BigEndian.PutUint64(buf[:8], s.round)
	binary.BigEndian.PutUint32(buf[8:], instance)
	h := sha256.Sum256(buf[:])
	return binary.BigEndian.Uint64(h[:8]), nil
}
func (stubCoins) Close() {}

// hashTask builds a deterministic task body: the output hashes the task ID,
// every dependency's bytes (in dependency-ID order) and every coin draw, so
// any input scrambling, draw-order change or missing edge shows up as a
// different final digest.
func hashTask(id uint32, deps []uint32, draws int) TaskFunc {
	return func(ctx context.Context, tc *TaskContext) ([]byte, error) {
		h := sha256.New()
		var buf [12]byte
		binary.BigEndian.PutUint32(buf[:4], id)
		h.Write(buf[:4])
		for _, d := range deps {
			binary.BigEndian.PutUint32(buf[:4], d)
			h.Write(buf[:4])
			h.Write(tc.Inputs[d])
		}
		for j := 0; j < draws; j++ {
			seed, err := tc.Coin()
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint64(buf[:8], seed)
			h.Write(buf[:8])
		}
		return h.Sum(nil), nil
	}
}

// randomGraph generates a layered DAG with varying group sizes, coin draw
// counts and edge fan-out: a root at all providers, 2–4 middle layers of
// 1–3 tasks whose dependencies reach back into any earlier layer, and a
// final task at all providers depending on every sink.
func randomGraph(rng *prng.SplitMix64, all []wire.NodeID, k int) []Task {
	m := len(all)
	type spec struct {
		id       uint32
		deps     []uint32
		group    []wire.NodeID
		declared int // CoinDraws
		dynamic  int // undeclared draws (UsesCoin only)
	}
	specs := []spec{{id: 1, group: all}}
	layers := 2 + rng.Intn(3)
	next := uint32(2)
	prevIDs := []uint32{1}
	allIDs := []uint32{1}
	for layer := 0; layer < layers; layer++ {
		width := 1 + rng.Intn(3)
		ids := make([]uint32, 0, width)
		for w := 0; w < width; w++ {
			sp := spec{id: next}
			next++
			// Fan-in: 1..3 dependencies from any earlier task, biased to the
			// previous layer so chains get deep.
			fanIn := 1 + rng.Intn(3)
			seen := map[uint32]bool{}
			for f := 0; f < fanIn; f++ {
				var d uint32
				if rng.Intn(2) == 0 {
					d = prevIDs[rng.Intn(len(prevIDs))]
				} else {
					d = allIDs[rng.Intn(len(allIDs))]
				}
				if !seen[d] {
					seen[d] = true
					sp.deps = append(sp.deps, d)
				}
			}
			// Group: full set (may draw coins) or a random window ≥ k+1.
			switch rng.Intn(3) {
			case 0:
				sp.group = all
				switch rng.Intn(3) {
				case 0:
					sp.declared = 1 + rng.Intn(2)
				case 1:
					sp.dynamic = 1 + rng.Intn(2)
				}
			default:
				size := k + 1 + rng.Intn(m-k)
				if size > m {
					size = m
				}
				start := rng.Intn(m - size + 1)
				sp.group = all[start : start+size]
			}
			specs = append(specs, sp)
			ids = append(ids, sp.id)
		}
		allIDs = append(allIDs, ids...)
		prevIDs = ids
	}
	// Final task: depends on every sink, so it transitively reaches all.
	hasDependent := map[uint32]bool{}
	for _, sp := range specs {
		for _, d := range sp.deps {
			hasDependent[d] = true
		}
	}
	final := spec{id: next, group: all}
	for _, sp := range specs {
		if !hasDependent[sp.id] {
			final.deps = append(final.deps, sp.id)
		}
	}
	specs = append(specs, final)

	tasks := make([]Task, 0, len(specs))
	for _, sp := range specs {
		draws := sp.declared + sp.dynamic
		tasks = append(tasks, Task{
			ID:        sp.id,
			Name:      fmt.Sprintf("t%d", sp.id),
			Deps:      sp.deps,
			Group:     sp.group,
			UsesCoin:  draws > 0,
			CoinDraws: sp.declared,
			Run:       hashTask(sp.id, sp.deps, draws),
		})
	}
	return tasks
}

// evalSequential is the reference executor: a plain local topological walk
// of the same task bodies with the same coin source — no network, no
// speculation, no concurrency. The concurrent scheduler must be
// byte-identical to it.
func evalSequential(t *testing.T, tasks []Task, coins CoinSource, round uint64) []byte {
	t.Helper()
	results := make(map[uint32][]byte, len(tasks))
	ctx := context.Background()
	for i := range tasks {
		task := &tasks[i]
		tc := &TaskContext{Round: round, Inputs: make(map[uint32][]byte, len(task.Deps))}
		for _, d := range task.Deps {
			tc.Inputs[d] = results[d]
		}
		if task.UsesCoin {
			var draw int
			tc.coinFn = func() (uint64, error) {
				inst := CoinInstance(task.ID, draw)
				draw++
				return coins.Seed(ctx, inst)
			}
		}
		out, err := task.Run(ctx, tc)
		if err != nil {
			t.Fatalf("reference eval task %d: %v", task.ID, err)
		}
		results[task.ID] = out
	}
	return results[tasks[len(tasks)-1].ID]
}

// Property: for random DAGs — varying groups, coin draws and edge fan-out —
// the concurrent scheduler produces byte-identical outputs to the reference
// sequential executor, at every provider. Deterministic coins make the two
// executions comparable; run under -race this also exercises the
// scheduler's speculation and publication ordering.
func TestRandomGraphMatchesSequentialReference(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up clusters")
	}
	const m, k = 5, 1
	all := providerIDs(m)

	for seed := uint64(1); seed <= 12; seed++ {
		rng := prng.New(seed)
		tasks := randomGraph(rng, all, k)
		g, err := New(all, k, tasks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		coins := stubCoins{round: seed}
		want := evalSequential(t, g.Tasks(), coins, seed)

		peers := newPeers(t, m)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		outs := make([][]byte, m)
		errs := make([]error, m)
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func(i int, p *proto.Peer) {
				defer wg.Done()
				outs[i], errs[i] = Execute(ctx, p, seed, g, Options{Coins: coins})
			}(i, p)
		}
		wg.Wait()
		cancel()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d peer %d: %v (graph: %d tasks, %d transfers, %d declared coins)",
					seed, i, err, len(g.Tasks()), g.NumTransfers(), len(g.CoinInstances()))
			}
		}
		for i := range outs {
			if string(outs[i]) != string(want) {
				t.Fatalf("seed %d peer %d: output diverged from sequential reference", seed, i)
			}
		}
	}
}

// Property: the same random DAGs under the real common coin still agree at
// every provider (the seeds are unpredictable, so the reference here is
// cross-provider agreement, not a precomputed value).
func TestRandomGraphRealCoinAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up clusters")
	}
	const m, k = 4, 1
	all := providerIDs(m)

	for seed := uint64(1); seed <= 3; seed++ {
		rng := prng.New(seed * 101)
		tasks := randomGraph(rng, all, k)
		g, err := New(all, k, tasks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		peers := newPeers(t, m)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		outs := make([][]byte, m)
		errs := make([]error, m)
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func(i int, p *proto.Peer) {
				defer wg.Done()
				outs[i], errs[i] = Execute(ctx, p, seed, g, Options{})
			}(i, p)
		}
		wg.Wait()
		cancel()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d peer %d: %v", seed, i, err)
			}
		}
		for i := 1; i < m; i++ {
			if string(outs[i]) != string(outs[0]) {
				t.Fatalf("seed %d: providers disagree", seed)
			}
		}
	}
}
