package taskgraph

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"distauction/internal/testleak"
)

// envTask returns a task body that derives its output from the per-round
// Env string plus its inputs — so state leaking from one round into
// another (an input, a result or gather scratch of a previous round) shows
// up as a wrong output, not silently.
func envTask(prefix string, deps ...uint32) TaskFunc {
	return func(ctx context.Context, tc *TaskContext) ([]byte, error) {
		var b strings.Builder
		b.WriteString(prefix)
		b.WriteByte(':')
		b.WriteString(tc.Env.(string))
		for _, d := range deps {
			b.WriteByte('|')
			b.Write(tc.Inputs[d])
		}
		return []byte(b.String()), nil
	}
}

// runExecutors runs one round of each peer's executor concurrently with the
// given env and returns per-peer outputs and errors.
func runExecutors(t *testing.T, exs []*Executor, round uint64, env string) ([][]byte, []error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	outs := make([][]byte, len(exs))
	errs := make([]error, len(exs))
	var wg sync.WaitGroup
	for i, ex := range exs {
		wg.Add(1)
		go func(i int, ex *Executor) {
			defer wg.Done()
			outs[i], errs[i] = ex.Run(ctx, round, env, Options{})
		}(i, ex)
	}
	wg.Wait()
	return outs, errs
}

// TestExecutorRoundsIndependent drives a persistent executor through many
// sequential rounds on the same compiled graph, with a distinct per-round
// env threaded through a diamond of tasks (including subgroup tasks, so
// transfers run too). Every round's output must be exactly the value
// derived from THAT round's env — any cross-round bleed through the
// compiled plan or the persistent workers is a hard failure. Run under
// -race this also checks the handoff of a round's state between Run and
// the workers.
func TestExecutorRoundsIndependent(t *testing.T) {
	peers := newPeers(t, 3)
	all := providerIDs(3)
	g, err := New(all, 1, []Task{
		{ID: 1, Group: all, Run: envTask("seed")},
		{ID: 2, Deps: []uint32{1}, Group: all[:2], Run: envTask("left", 1)},
		{ID: 3, Deps: []uint32{1}, Group: all[1:], Run: envTask("right", 1)},
		{ID: 4, Deps: []uint32{2, 3}, Group: all, Run: envTask("join", 2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	exs := make([]*Executor, len(peers))
	for i, p := range peers {
		exs[i] = NewExecutor(p, g, 2)
		defer exs[i].Close()
	}
	const rounds = 40
	for r := uint64(1); r <= rounds; r++ {
		env := fmt.Sprintf("round-%03d", r)
		want := fmt.Sprintf("join:%s|left:%s|seed:%s|right:%s|seed:%s",
			env, env, env, env, env)
		outs, errs := runExecutors(t, exs, r, env)
		for i := range peers {
			if errs[i] != nil {
				t.Fatalf("round %d peer %d: %v", r, i, errs[i])
			}
			if string(outs[i]) != want {
				t.Fatalf("round %d peer %d:\n got %q\nwant %q", r, i, outs[i], want)
			}
		}
		for _, p := range peers {
			p.EndRound(r)
		}
	}
}

// TestExecutorAbortUnwind alternates failing rounds (a task body returns
// an error, the round resolves to ⊥ everywhere) with succeeding rounds on
// the SAME executors. An abort must leave the executor clean: the next
// round starts from its own env, which the success rounds check, and after
// Close no task worker is left.
func TestExecutorAbortUnwind(t *testing.T) {
	peers := newPeers(t, 3)
	all := providerIDs(3)
	fail := fmt.Errorf("injected task failure")
	g, err := New(all, 1, []Task{
		{ID: 1, Group: all, Run: envTask("seed")},
		{ID: 2, Deps: []uint32{1}, Group: all, Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
			if strings.HasPrefix(tc.Env.(string), "fail") {
				return nil, fail
			}
			return envTask("mid", 1)(ctx, tc)
		}},
		{ID: 3, Deps: []uint32{2}, Group: all, Run: envTask("fin", 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The peers are up before the census; the executors, their rounds and
	// their Close all run inside it.
	testleak.Check(t, func() {
		exs := make([]*Executor, len(peers))
		for i, p := range peers {
			exs[i] = NewExecutor(p, g, 2)
			defer exs[i].Close()
		}
		const rounds = 20
		for r := uint64(1); r <= rounds; r++ {
			failing := r%2 == 1
			env := fmt.Sprintf("round-%03d", r)
			if failing {
				env = "fail-" + env
			}
			outs, errs := runExecutors(t, exs, r, env)
			for i := range peers {
				if failing {
					if errs[i] == nil {
						t.Fatalf("round %d peer %d: expected abort, got %q", r, i, outs[i])
					}
				} else {
					if errs[i] != nil {
						t.Fatalf("round %d peer %d: %v", r, i, errs[i])
					}
					want := fmt.Sprintf("fin:%s|mid:%s|seed:%s", env, env, env)
					if string(outs[i]) != want {
						t.Fatalf("round %d peer %d:\n got %q\nwant %q", r, i, outs[i], want)
					}
				}
			}
			for _, p := range peers {
				p.EndRound(r)
			}
		}
	})
}
