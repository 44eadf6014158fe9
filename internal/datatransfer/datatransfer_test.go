package datatransfer

import (
	"bytes"
	"context"
	"errors"
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

func ids(ns ...wire.NodeID) []wire.NodeID { return ns }

func TestTransferDisjointSets(t *testing.T) {
	peers := newPeers(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	S := ids(1, 2)
	O := ids(3, 4)
	value := []byte("task result")

	outs := make([][]byte, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			var in []byte
			if proto.ContainsNode(S, p.Self()) {
				in = value
			}
			outs[i], errs[i] = Run(ctx, p, 1, 0, S, O, in)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := range peers {
		if !bytes.Equal(outs[i], value) {
			t.Errorf("peer %d output %q, want %q", i+1, outs[i], value)
		}
	}
}

func TestTransferOverlappingSets(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	S := ids(1, 2)
	O := ids(2, 3) // provider 2 both sends and receives
	value := []byte("v")

	outs := make([][]byte, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			var in []byte
			if proto.ContainsNode(S, p.Self()) {
				in = value
			}
			outs[i], errs[i] = Run(ctx, p, 1, 0, S, O, in)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	for i := range peers {
		if !bytes.Equal(outs[i], value) {
			t.Errorf("peer %d output %q", i+1, outs[i])
		}
	}
}

func TestBystanderReturnsNil(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	S := ids(1)
	O := ids(2)

	outs := make([][]byte, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			var in []byte
			if p.Self() == 1 {
				in = []byte("x")
			}
			outs[i], errs[i] = Run(ctx, p, 1, 0, S, O, in)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	if outs[2] != nil {
		t.Errorf("bystander got %q, want nil", outs[2])
	}
	if !bytes.Equal(outs[1], []byte("x")) {
		t.Errorf("receiver got %q", outs[1])
	}
}

// A lying sender in S cannot push a different value: the receiver sees the
// conflict and the round aborts.
func TestConflictingSendersAbort(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	S := ids(1, 2)
	O := ids(3)

	var wg sync.WaitGroup
	errs := make([]error, 3)
	outs := make([][]byte, 3)
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			var in []byte
			switch p.Self() {
			case 1:
				in = []byte("honest value")
			case 2:
				in = []byte("LIE")
			}
			outs[i], errs[i] = Run(ctx, p, 1, 0, S, O, in)
		}(i, p)
	}
	wg.Wait()
	if !errors.Is(errs[2], proto.ErrAborted) {
		t.Errorf("receiver: got %v, want abort", errs[2])
	}
	// Conflicting copies are a protocol deviation, but the receiver cannot
	// tell which sender lied.
	if code := proto.AbortCodeOf(errs[2]); code != proto.AbortProtocol {
		t.Errorf("receiver: abort code %v, want protocol", code)
	}
	// The receiver never adopts the lie as its output.
	if bytes.Equal(outs[2], []byte("LIE")) {
		t.Error("receiver adopted the minority lie")
	}
}

func TestSilentSenderTimesOutToAbort(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	S := ids(1, 2) // provider 2 stays silent
	O := ids(3)

	var wg sync.WaitGroup
	var senderErr, recvErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, senderErr = Run(ctx, peers[0], 1, 0, S, O, []byte("v"))
	}()
	go func() {
		defer wg.Done()
		_, recvErr = Run(ctx, peers[2], 1, 0, S, O, nil)
	}()
	wg.Wait()
	if senderErr != nil {
		t.Errorf("pure sender should not fail: %v", senderErr)
	}
	if recvErr == nil {
		t.Error("receiver should fail when a sender is silent")
	}
}

func TestInstancesDoNotInterfere(t *testing.T) {
	peers := newPeers(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	S := ids(1)
	O := ids(2)

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, e1 := Run(ctx, peers[0], 1, 0, S, O, []byte("first"))
		_, e2 := Run(ctx, peers[0], 1, 1, S, O, []byte("second"))
		if e1 != nil || e2 != nil {
			errs[0] = errors.Join(e1, e2)
		}
	}()
	go func() {
		defer wg.Done()
		var e1, e2 error
		results[0], e1 = Run(ctx, peers[1], 1, 0, S, O, nil)
		results[1], e2 = Run(ctx, peers[1], 1, 1, S, O, nil)
		if e1 != nil || e2 != nil {
			errs[1] = errors.Join(e1, e2)
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("side %d: %v", i, err)
		}
	}
	if string(results[0]) != "first" || string(results[1]) != "second" {
		t.Errorf("instances crossed: %q / %q", results[0], results[1])
	}
}

func TestAbortedRoundShortCircuits(t *testing.T) {
	peers := newPeers(t, 2)
	if err := peers[0].Abort(2, "pre"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), peers[0], 2, 0, ids(1), ids(2), []byte("x")); !errors.Is(err, proto.ErrAborted) {
		t.Errorf("got %v, want abort", err)
	}
}
