package taskgraph

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// transferTap counts the data-transfer envelopes the network delivers to
// its node.
type transferTap struct {
	transport.Conn
	n atomic.Int64
}

func (c *transferTap) SetHandler(h transport.Handler) {
	c.Conn.SetHandler(func(env wire.Envelope) {
		c.count(env)
		h(env)
	})
}

func (c *transferTap) SetBatchHandler(h transport.BatchHandler) {
	c.Conn.SetBatchHandler(func(envs []wire.Envelope) {
		for _, env := range envs {
			c.count(env)
		}
		h(envs)
	})
}

func (c *transferTap) count(env wire.Envelope) {
	if env.Tag.Block == wire.BlockTransfer {
		c.n.Add(1)
	}
}

// tappedPeers is newPeers with every node's conn behind a transferTap.
func tappedPeers(t *testing.T, n int) ([]*proto.Peer, []*transferTap) {
	t.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	t.Cleanup(func() { hub.Close() })
	ids := providerIDs(n)
	peers := make([]*proto.Peer, n)
	taps := make([]*transferTap, n)
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		taps[i] = &transferTap{Conn: conn}
		peers[i] = proto.NewPeer(taps[i], ids)
		t.Cleanup(func(p *proto.Peer) func() { return func() { p.Close() } }(peers[i]))
	}
	return peers, taps
}

// overlapGraph is a partial overlap over providers 1–4: the producer runs
// at {1,2}, its consumer at {2,3,4}, and a final gather at everyone.
// Provider 2 computes the producer's value itself; 3 and 4 need it sent.
func overlapGraph(t *testing.T) *Graph {
	t.Helper()
	all := providerIDs(4)
	g, err := New(all, 1, []Task{
		{ID: 1, Name: "produce", Group: all[:2], Run: constTask("truth")},
		{ID: 2, Name: "consume", Deps: []uint32{1}, Group: all[1:],
			Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
				return append(append([]byte{}, tc.Inputs[1]...), "+consumed"...), nil
			}},
		{ID: 3, Name: "final", Deps: []uint32{2}, Group: all, Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
			return tc.Inputs[2], nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The transfer plan: an edge's receivers are the consumer-group members
// outside the producer's group, and an edge without any is not built.
func TestPlanReceiversAreConsumersOutsideProducer(t *testing.T) {
	run := constTask("x")
	type plan map[[2]uint32][]wire.NodeID // (from, to) task IDs → receivers
	cases := []struct {
		name  string
		m, k  int
		tasks func(all []wire.NodeID) []Task
		want  plan
	}{
		{"partial overlap", 4, 1, func(all []wire.NodeID) []Task {
			return []Task{
				{ID: 1, Group: all[:2], Run: run},
				{ID: 2, Deps: []uint32{1}, Group: all[1:], Run: run},
				{ID: 3, Deps: []uint32{2}, Group: all, Run: run},
			}
		}, plan{{1, 2}: {3, 4}, {2, 3}: {1}}},
		{"same group", 4, 1, func(all []wire.NodeID) []Task {
			return []Task{
				{ID: 1, Group: all, Run: run},
				{ID: 2, Deps: []uint32{1}, Group: all, Run: run},
			}
		}, plan{}},
		// The standard auction's shape at m=8, k=1: allocation at everyone,
		// four payment groups of two, a gather at everyone. No allocation
		// edge survives, and each payment share goes to the six providers
		// outside its group.
		{"standard m=8 k=1", 8, 1, func(all []wire.NodeID) []Task {
			tasks := []Task{{ID: 1, Group: all, Run: run}}
			final := Task{ID: 6, Group: all, Run: run}
			for i, grp := range Groups(all, 1) {
				id := uint32(2 + i)
				tasks = append(tasks, Task{ID: id, Deps: []uint32{1}, Group: grp, Run: run})
				final.Deps = append(final.Deps, id)
			}
			return append(tasks, final)
		}, plan{
			{2, 6}: {3, 4, 5, 6, 7, 8},
			{3, 6}: {1, 2, 5, 6, 7, 8},
			{4, 6}: {1, 2, 3, 4, 7, 8},
			{5, 6}: {1, 2, 3, 4, 5, 6},
		}},
	}
	for _, tc := range cases {
		all := providerIDs(tc.m)
		g, err := New(all, tc.k, tc.tasks(all))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := plan{}
		for i, e := range g.edges {
			if e.instance != uint32(i) {
				t.Errorf("%s: edge %d numbered %d", tc.name, i, e.instance)
			}
			got[[2]uint32{g.tasks[e.from].ID, g.tasks[e.to].ID}] = e.receivers
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d edges %v, want %d %v", tc.name, len(got), got, len(tc.want), tc.want)
			continue
		}
		for key, want := range tc.want {
			if !slices.Equal(got[key], want) {
				t.Errorf("%s: edge %d→%d receivers %v, want %v", tc.name, key[0], key[1], got[key], want)
			}
		}
	}
}

// In the partial overlap, provider 2 reads the producer's value from its
// own copy: no transfer envelope ever reaches it, while 3 and 4 each get
// the value from both producers and provider 1 gets the consumer's result
// from its three members.
func TestPlanPartialOverlapSendsOnlyToReceivers(t *testing.T) {
	peers, taps := tappedPeers(t, 4)
	outs, errs := executeAll(t, peers, 1, overlapGraph(t))
	for i := range peers {
		if errs[i] != nil {
			t.Fatalf("provider %d: %v", i+1, errs[i])
		}
		if string(outs[i]) != "truth+consumed" {
			t.Errorf("provider %d: %q", i+1, outs[i])
		}
	}
	want := []int64{3, 0, 2, 2}
	for i, tap := range taps {
		if got := tap.n.Load(); got != want[i] {
			t.Errorf("provider %d received %d transfer envelopes, want %d", i+1, got, want[i])
		}
	}
}

// A producer that lies on the transfer (honest digest inside its group, a
// wrong value to the receivers) is still caught by the receivers 3 and 4.
// Provider 2 never sees the lie — it reads its own copy — and ends ⊥ by
// the receivers' abort while it waits on a digest gather for 3 and 4.
func TestPlanPartialOverlapLyingProducer(t *testing.T) {
	peers, taps := tappedPeers(t, 4)
	g := overlapGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	outs := make([][]byte, 4)
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = Execute(ctx, peers[i], 1, g, Options{})
		}(i)
	}

	// Provider 1 joins task 1's digest gather honestly, then sends a lie on
	// transfer 0 to exactly the plan's receivers.
	devi := peers[0]
	producers := []wire.NodeID{1, 2}
	digestTag := wire.Tag{Round: 1, Block: wire.BlockTask, Instance: 1, Step: stepTaskDigest}
	for _, member := range producers {
		_ = devi.Send(member, digestTag, sha256Of([]byte("truth")))
	}
	if _, err := devi.GatherAppend(ctx, digestTag, producers, nil); err != nil {
		t.Fatalf("deviant's digest gather: %v", err)
	}
	transferTag := wire.Tag{Round: 1, Block: wire.BlockTransfer, Instance: 0, Step: 1}
	for _, o := range []wire.NodeID{3, 4} {
		_ = devi.Send(o, transferTag, []byte("LIE"))
	}
	wg.Wait()

	for i := 1; i < 4; i++ {
		id := i + 1
		if !errors.Is(errs[i], proto.ErrAborted) {
			t.Errorf("provider %d: got %v, want ⊥", id, errs[i])
			continue
		}
		if bytes.Contains(outs[i], []byte("LIE")) {
			t.Errorf("provider %d adopted the lie: %q", id, outs[i])
		}
		var ae *proto.AbortError
		if !errors.As(peers[i].AbortErr(1), &ae) {
			t.Fatalf("provider %d: no latched abort", id)
		}
		// Only a receiver can see the conflict, so every ⊥ is a receiver's
		// mismatch verdict on transfer 0: protocol, charged to nobody.
		if ae.Code != proto.AbortProtocol || ae.Culprit != wire.Broadcast || (ae.From != 3 && ae.From != 4) ||
			!strings.HasPrefix(ae.Reason, transferTag.String()) {
			t.Errorf("provider %d: abort %+v, want the transfer-0 mismatch signalled by 3 or 4", id, ae)
		}
	}
	if got := taps[1].n.Load(); got != 0 {
		t.Errorf("provider 2 received %d transfer envelopes, want 0", got)
	}
}
