package allocator

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"distauction/internal/proto"
	"distauction/internal/taskgraph"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

func newPeers(t *testing.T, n int) []*proto.Peer {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	peers := make([]*proto.Peer, n)
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = proto.NewPeer(conn, ids)
		t.Cleanup(func(p *proto.Peer) func() { return func() { p.Close() } }(peers[i]))
	}
	return peers
}

// executorsFor starts a depth-1 executor at every peer over a one-task graph
// whose task returns out.
func executorsFor(t *testing.T, peers []*proto.Peer, k int, out string) []*taskgraph.Executor {
	t.Helper()
	execs := make([]*taskgraph.Executor, len(peers))
	for i, p := range peers {
		providers := p.Providers()
		g, err := taskgraph.New(providers, k, []taskgraph.Task{
			{ID: 1, Name: "compute", Group: providers,
				Run: func(ctx context.Context, tc *taskgraph.TaskContext) ([]byte, error) {
					return []byte(out), nil
				}},
		})
		if err != nil {
			t.Fatal(err)
		}
		execs[i] = taskgraph.NewExecutor(p, g, 1)
		t.Cleanup(execs[i].Close)
	}
	return execs
}

func TestRunHappyPath(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	execs := executorsFor(t, peers, 1, "result")
	outs := make([][]byte, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			outs[i], errs[i] = Run(ctx, p, 1, []byte("agreed-input"), execs[i], nil, nil)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := range outs {
		if !bytes.Equal(outs[i], []byte("result")) {
			t.Errorf("peer %d output %q", i, outs[i])
		}
	}
}

// Property 2 condition (3): providers with different inputs both output ⊥
// before any allocation work runs.
func TestRunDivergentInputsAbort(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	execs := executorsFor(t, peers, 1, "result")
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			input := []byte("vector-A")
			if i == 2 {
				input = []byte("vector-B")
			}
			_, errs[i] = Run(ctx, p, 1, input, execs[i], nil, nil)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, proto.ErrAborted) {
			t.Errorf("peer %d: got %v, want abort", i, err)
		}
	}
}

func TestRunAbortedRoundShortCircuits(t *testing.T) {
	peers := newPeers(t, 2)
	peers[0].Fail(1, "test", errors.New("pre"))
	ex := executorsFor(t, peers[:1], 0, "x")[0]
	if _, err := Run(context.Background(), peers[0], 1, []byte("in"), ex, nil, nil); !errors.Is(err, proto.ErrAborted) {
		t.Errorf("got %v, want abort", err)
	}
}
