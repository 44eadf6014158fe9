package taskgraph

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"distauction/internal/proto"
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

func providerIDs(n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	return ids
}

func constTask(out string) TaskFunc {
	return func(ctx context.Context, tc *TaskContext) ([]byte, error) {
		return []byte(out), nil
	}
}

// executeAll runs the graph at every peer concurrently.
func executeAll(t *testing.T, peers []*proto.Peer, round uint64, g *Graph) ([][]byte, []error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	outs := make([][]byte, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			outs[i], errs[i] = Execute(ctx, p, round, g, Options{})
		}(i, p)
	}
	wg.Wait()
	return outs, errs
}

func TestGraphValidation(t *testing.T) {
	all := providerIDs(4)
	run := constTask("x")
	tests := []struct {
		name  string
		k     int
		tasks []Task
		ok    bool
	}{
		{"empty", 1, nil, false},
		{"single full task", 1, []Task{{ID: 1, Group: all, Run: run}}, true},
		{"missing run", 1, []Task{{ID: 1, Group: all}}, false},
		{"group too small", 1, []Task{{ID: 1, Group: all[:1], Run: run}}, false},
		{"duplicate ids", 1, []Task{{ID: 1, Group: all, Run: run}, {ID: 1, Group: all, Run: run}}, false},
		{"dep on later id", 1, []Task{
			{ID: 1, Deps: []uint32{2}, Group: all, Run: run},
			{ID: 2, Group: all, Run: run},
		}, false},
		{"dep missing", 1, []Task{{ID: 2, Deps: []uint32{1}, Group: all, Run: run}}, false},
		{"final not all providers", 1, []Task{{ID: 1, Group: all[:2], Run: run}}, false},
		{"final not depending on all", 1, []Task{
			{ID: 1, Group: all[:2], Run: run},
			{ID: 2, Group: all, Run: run},
		}, false},
		{"non-provider group member", 1, []Task{
			{ID: 1, Group: []wire.NodeID{1, 99}, Run: run},
			{ID: 2, Deps: []uint32{1}, Group: all, Run: run},
		}, false},
		{"coin in subgroup", 1, []Task{
			{ID: 1, Group: all[:2], UsesCoin: true, Run: run},
			{ID: 2, Deps: []uint32{1}, Group: all, Run: run},
		}, false},
		{"valid diamond", 1, []Task{
			{ID: 1, Group: all, Run: run},
			{ID: 2, Deps: []uint32{1}, Group: all[:2], Run: run},
			{ID: 3, Deps: []uint32{1}, Group: all[2:], Run: run},
			{ID: 4, Deps: []uint32{2, 3}, Group: all, Run: run},
		}, true},
	}
	for _, tt := range tests {
		_, err := New(all, tt.k, tt.tasks)
		if (err == nil) != tt.ok {
			t.Errorf("%s: New() err = %v, want ok=%v", tt.name, err, tt.ok)
		}
	}
}

func TestSingleTaskExecution(t *testing.T) {
	peers := newPeers(t, 3)
	g, err := New(providerIDs(3), 1, []Task{
		{ID: 1, Name: "solve", Group: providerIDs(3), Run: constTask("result")},
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, errs := executeAll(t, peers, 1, g)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i, out := range outs {
		if string(out) != "result" {
			t.Errorf("peer %d: %q", i, out)
		}
	}
}

// The diamond of Figure 2: T1 → {T2.1, T2.2} → T3, with the middle tasks
// assigned to disjoint groups (parallelism) and results crossing via data
// transfer.
func TestDiamondWithDisjointGroups(t *testing.T) {
	peers := newPeers(t, 4)
	all := providerIDs(4)
	g1, g2 := all[:2], all[2:]

	tasks := []Task{
		{ID: 1, Name: "T1", Group: all, Run: constTask("base")},
		{ID: 2, Name: "T2.1", Deps: []uint32{1}, Group: g1,
			Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
				return append(tc.Inputs[1], []byte("+left")...), nil
			}},
		{ID: 3, Name: "T2.2", Deps: []uint32{1}, Group: g2,
			Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
				return append(tc.Inputs[1], []byte("+right")...), nil
			}},
		{ID: 4, Name: "T3", Deps: []uint32{2, 3}, Group: all,
			Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
				return append(append([]byte{}, tc.Inputs[2]...), tc.Inputs[3]...), nil
			}},
	}
	g, err := New(all, 1, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumTransfers(); got != 2 {
		// edges: 2→4 and 3→4. Task 1 runs at every provider, so every
		// member of g1 and g2 computed its value: 1→2 and 1→3 have no
		// receivers and are not built.
		t.Errorf("transfers = %d, want 2", got)
	}
	outs, errs := executeAll(t, peers, 1, g)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	want := "base+leftbase+right"
	for i, out := range outs {
		if string(out) != want {
			t.Errorf("peer %d: %q, want %q", i, out, want)
		}
	}
}

func TestCoinTask(t *testing.T) {
	peers := newPeers(t, 3)
	all := providerIDs(3)
	tasks := []Task{
		{ID: 1, Name: "randomized", Group: all, UsesCoin: true,
			Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
				s1, err := tc.Coin()
				if err != nil {
					return nil, err
				}
				s2, err := tc.Coin()
				if err != nil {
					return nil, err
				}
				return []byte(fmt.Sprintf("%d/%d", s1, s2)), nil
			}},
	}
	g, err := New(all, 1, tasks)
	if err != nil {
		t.Fatal(err)
	}
	outs, errs := executeAll(t, peers, 1, g)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[i], outs[0]) {
			t.Fatalf("coin draws diverged: %q vs %q", outs[0], outs[i])
		}
	}
	if string(outs[0]) == "0/0" {
		t.Error("coin produced zero seeds twice; astronomically unlikely")
	}
}

func TestCoinDeniedOutsideFullGroup(t *testing.T) {
	tc := &TaskContext{}
	if _, err := tc.Coin(); !errors.Is(err, ErrCoinUnavailable) {
		t.Errorf("got %v, want ErrCoinUnavailable", err)
	}
}

// A deviant group member that computes a different result is caught by the
// intra-group digest cross-check.
func TestDeviantGroupMemberAborts(t *testing.T) {
	peers := newPeers(t, 3)
	all := providerIDs(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	mkGraph := func(out string) *Graph {
		g, err := New(all, 1, []Task{
			{ID: 1, Name: "compute", Group: all, Run: constTask(out)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	honest := mkGraph("correct")
	lying := mkGraph("WRONG")

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, p := range peers {
		g := honest
		if i == 2 {
			g = lying
		}
		wg.Add(1)
		go func(i int, p *proto.Peer, g *Graph) {
			defer wg.Done()
			_, errs[i] = Execute(ctx, p, 1, g, Options{})
		}(i, p, g)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if !errors.Is(errs[i], proto.ErrAborted) {
			t.Errorf("honest peer %d: got %v, want abort", i, errs[i])
		}
	}
}

// A deviant that lies only in the data transfer (correct digest among its
// group, wrong value to the receivers) is caught by the receivers' unanimity
// check as long as its group has an honest member.
func TestLyingTransferAborts(t *testing.T) {
	peers := newPeers(t, 4)
	all := providerIDs(4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g1, g2 := all[:2], all[2:]

	mk := func(lieInTransfer bool) *Graph {
		run1 := constTask("truth")
		g, err := New(all, 1, []Task{
			{ID: 1, Name: "produce", Group: g1, Run: run1},
			{ID: 2, Name: "consume", Deps: []uint32{1}, Group: all,
				Run: func(ctx context.Context, tc *TaskContext) ([]byte, error) {
					return tc.Inputs[1], nil
				}},
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = lieInTransfer
		return g
	}

	honest := mk(false)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	outs := make([][]byte, 4)
	for i, p := range peers {
		if p.Self() == 2 {
			continue // deviant scripted below
		}
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			outs[i], errs[i] = Execute(ctx, p, 1, honest, Options{})
		}(i, p)
	}

	// Deviant (provider 2, member of g1): participates in task 1 digest
	// exchange honestly but sends a corrupted value on the transfer edge.
	devi := peers[1]
	go func() {
		// Task digest for task 1 ("truth").
		digestTag := wire.Tag{Round: 1, Block: wire.BlockTask, Instance: 1, Step: stepTaskDigest}
		h := sha256Of([]byte("truth"))
		for _, member := range g1 {
			_ = devi.Send(member, digestTag, h)
		}
		// Wait for the group digest (as Execute would).
		_, _ = devi.GatherAppend(ctx, digestTag, g1, nil)
		// Transfer edge 0 carries task 1's result to the members of task
		// 2's group that did not compute it (g2): send them the lie.
		transferTag := wire.Tag{Round: 1, Block: wire.BlockTransfer, Instance: 0, Step: 1}
		for _, o := range g2 {
			_ = devi.Send(o, transferTag, []byte("LIE"))
		}
	}()

	wg.Wait()
	for i, p := range peers {
		if p.Self() == 2 {
			continue
		}
		if !errors.Is(errs[i], proto.ErrAborted) {
			t.Errorf("honest peer %d: got %v, want abort", i, errs[i])
		}
		if bytes.Equal(outs[i], []byte("LIE")) {
			t.Errorf("peer %d adopted the lie", i)
		}
	}
}

func TestGroupsPartition(t *testing.T) {
	all := providerIDs(8)
	tests := []struct {
		k     int
		wantC int
		sizes []int
	}{
		{0, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{1, 4, []int{2, 2, 2, 2}},
		{2, 2, []int{3, 5}}, // 8/3 = 2 groups, leftovers join the last
		{3, 2, []int{4, 4}},
		{7, 1, []int{8}},
		{8, 0, nil},
	}
	for _, tt := range tests {
		groups := Groups(all, tt.k)
		if len(groups) != tt.wantC {
			t.Errorf("k=%d: %d groups, want %d", tt.k, len(groups), tt.wantC)
			continue
		}
		seen := map[wire.NodeID]bool{}
		for gi, g := range groups {
			if len(g) != tt.sizes[gi] {
				t.Errorf("k=%d group %d size %d, want %d", tt.k, gi, len(g), tt.sizes[gi])
			}
			if len(g) < tt.k+1 {
				t.Errorf("k=%d group %d smaller than k+1", tt.k, gi)
			}
			for _, id := range g {
				if seen[id] {
					t.Errorf("k=%d: provider %d in two groups", tt.k, id)
				}
				seen[id] = true
			}
		}
	}
}

func sha256Of(b []byte) []byte {
	h := sha256Sum(b)
	return h[:]
}

func sha256Sum(b []byte) [32]byte {
	return sha256.Sum256(b)
}
