package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/auth"
	"distauction/internal/wire"
)

// startTCPPair launches two authenticated TCP nodes wired to each other.
func startTCPPair(t *testing.T) (*TCPNode, *TCPNode) {
	t.Helper()
	master := []byte("tcp-test-master")
	ids := []wire.NodeID{1, 2}
	n1, err := ListenTCP(TCPConfig{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		Peers:      map[wire.NodeID]string{},
		Registry:   auth.NewRegistryFromMaster(master, 1, ids),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close() })
	n2, err := ListenTCP(TCPConfig{
		Self:       2,
		ListenAddr: "127.0.0.1:0",
		Peers:      map[wire.NodeID]string{1: n1.Addr()},
		Registry:   auth.NewRegistryFromMaster(master, 2, ids),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n2.Close() })
	n1.SetPeer(2, n2.Addr())
	return n1, n2
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	n1, n2 := startTCPPair(t)
	in := Pull(n2)
	const count = 200
	for i := 0; i < count; i++ {
		e := env(1, 2, "x")
		e.Tag.Instance = uint32(i)
		if err := n1.Send(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < count; i++ {
		got, err := in.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		// TCP per-pair ordering is preserved by the single connection.
		if got.Tag.Instance != uint32(i) {
			t.Fatalf("out of order: got %d at position %d", got.Tag.Instance, i)
		}
	}
}

// TestTCPConcurrentBurstDelivered hammers one connection from many
// goroutines: each frame is one Write under the connection's lock, so
// concurrent frames must arrive whole, none lost or interleaved.
func TestTCPConcurrentBurstDelivered(t *testing.T) {
	n1, n2 := startTCPPair(t)
	in := Pull(n2)
	const senders, perSender = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				e := env(1, 2, "burst")
				e.Tag.Instance = uint32(s*perSender + i)
				if err := n1.Send(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seen := make(map[uint32]bool, senders*perSender)
	for i := 0; i < senders*perSender; i++ {
		got, err := in.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if string(got.Payload) != "burst" || seen[got.Tag.Instance] {
			t.Fatalf("bad or duplicate frame: %+v", got)
		}
		seen[got.Tag.Instance] = true
	}
}

func TestTCPRejectsForgedMAC(t *testing.T) {
	// n3 shares no keys with n2: its messages must be dropped.
	_, n2 := startTCPPair(t)
	in := Pull(n2)
	evil, err := ListenTCP(TCPConfig{
		Self:       1, // claims to be node 1
		ListenAddr: "127.0.0.1:0",
		Peers:      map[wire.NodeID]string{2: n2.Addr()},
		Registry:   auth.NewRegistryFromMaster([]byte("wrong-master"), 1, []wire.NodeID{1, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	if err := evil.Send(env(1, 2, "forged")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := in.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("forged message was delivered: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n2.Dropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n2.Dropped.Load() == 0 {
		t.Error("forged message not counted as dropped")
	}
}

// TestTCPDropsPlainEnvelopeFrame writes a correctly signed plain envelope
// frame straight to a node's listener. Every TCP frame is a superframe, so
// the node must drop it, count it in Dropped and deliver nothing.
func TestTCPDropsPlainEnvelopeFrame(t *testing.T) {
	_, n2 := startTCPPair(t)
	var delivered atomic.Int64
	n2.SetHandler(func(wire.Envelope) { delivered.Add(1) })
	n2.SetBatchHandler(func(envs []wire.Envelope) { delivered.Add(int64(len(envs))) })
	e := env(1, 2, "plain")
	signer := auth.NewRegistryFromMaster([]byte("tcp-test-master"), 1, []wire.NodeID{1, 2})
	if err := signer.Sign(&e); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", n2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, e.Encode()); err != nil {
		t.Fatal(err)
	}
	// The read loop handles the frame before it reads anything else: once
	// it is counted, it was not delivered.
	deadline := time.Now().Add(5 * time.Second)
	for n2.Dropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := n2.Dropped.Load(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	if got := delivered.Load(); got != 0 {
		t.Errorf("a plain envelope frame delivered %d envelopes", got)
	}
}

// TestTCPKilledConnsLeaveNoGoroutine kills a pair's connections again and
// again: each dead inbound connection's read loop must exit with it, so
// the goroutine count comes back to where it was.
func TestTCPKilledConnsLeaveNoGoroutine(t *testing.T) {
	n1, n2 := startTCPPair(t)
	var got atomic.Int64
	n1.SetHandler(func(wire.Envelope) { got.Add(1) })
	n2.SetHandler(func(wire.Envelope) { got.Add(1) })
	exchange := func() {
		t.Helper()
		want := got.Load() + 2
		if err := n1.Send(env(1, 2, "ping")); err != nil {
			t.Fatal(err)
		}
		if err := n2.Send(env(2, 1, "pong")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for got.Load() < want {
			if time.Now().After(deadline) {
				t.Fatal("exchange not delivered")
			}
			time.Sleep(time.Millisecond)
		}
	}
	exchange() // both directions' connections and read loops are up
	baseline := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		n1.KillConns()
		n2.KillConns()
		exchange()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after 100 kill cycles, %d before", n, baseline)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	n1, _ := startTCPPair(t)
	if err := n1.Send(env(1, 42, "nowhere")); err == nil {
		t.Error("send to unknown peer must fail")
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	n1, n2 := startTCPPair(t)
	if err := n1.Send(env(1, 2, "first")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Pull(n2).Recv(ctx); err != nil {
		t.Fatal(err)
	}
	addr := n2.Addr()
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart node 2 on the same address.
	master := []byte("tcp-test-master")
	n2b, err := ListenTCP(TCPConfig{
		Self:       2,
		ListenAddr: addr,
		Peers:      map[wire.NodeID]string{1: n1.Addr()},
		Registry:   auth.NewRegistryFromMaster(master, 2, []wire.NodeID{1, 2}),
	})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer n2b.Close()
	// A write to the dead connection can succeed locally (kernel-buffered)
	// before TCP notices the peer is gone, so that message may be lost;
	// the *next* write hits the error path and triggers the redial. Keep
	// sending until one arrives.
	got := make(chan struct{})
	var once sync.Once
	n2b.SetHandler(func(wire.Envelope) { once.Do(func() { close(got) }) })
	deadline := time.Now().Add(4 * time.Second)
	for {
		if err := n1.Send(env(1, 2, "second")); err != nil {
			t.Logf("send after restart (retrying): %v", err)
		}
		select {
		case <-got:
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("message never delivered after peer restart")
		}
	}
}

func TestTCPUnauthenticatedMode(t *testing.T) {
	n1, err := ListenTCP(TCPConfig{Self: 1, ListenAddr: "127.0.0.1:0", Peers: map[wire.NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP(TCPConfig{Self: 2, ListenAddr: "127.0.0.1:0", Peers: map[wire.NodeID]string{1: n1.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.SetPeer(2, n2.Addr())
	if err := n1.Send(env(1, 2, "plain")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := Pull(n2).Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "plain" {
		t.Errorf("got %q", got.Payload)
	}
}

// TestTCPNetworkConcurrentZeroConfigAttach attaches two zero-config nodes
// concurrently: each one's initial peer snapshot predates the other's bound
// address, so Attach must replay the shared address book into the newcomer
// in both directions or one side can never dial the other.
func TestTCPNetworkConcurrentZeroConfigAttach(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		net := NewTCPNetwork(TCPNetworkConfig{})
		conns := make([]Conn, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i, id := range []wire.NodeID{1, 2} {
			wg.Add(1)
			go func(i int, id wire.NodeID) {
				defer wg.Done()
				conns[i], errs[i] = net.Attach(id)
			}(i, id)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("attach %d: %v", i, err)
			}
		}
		for i, from := range conns {
			to := conns[1-i]
			env := wire.Envelope{From: from.Self(), To: to.Self(),
				Tag: wire.Tag{Round: 1, Block: 1, Step: uint8(i + 1)}, Payload: []byte("ping")}
			if err := from.Send(env); err != nil {
				t.Fatalf("iter %d: send %d->%d: %v", iter, from.Self(), to.Self(), err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			got, err := Pull(to).Recv(ctx)
			cancel()
			if err != nil {
				t.Fatalf("iter %d: recv at %d: %v", iter, to.Self(), err)
			}
			if got.From != from.Self() || string(got.Payload) != "ping" {
				t.Fatalf("iter %d: got %+v", iter, got)
			}
		}
		net.Close()
	}
}

// A Secret with no participant set would leave the first attached node
// without peer keys — every MAC would fail and rounds would hang. Attach
// must refuse the configuration instead; naming the members fixes it.
func TestTCPNetworkSecretNeedsParticipants(t *testing.T) {
	bare := NewTCPNetwork(TCPNetworkConfig{Secret: []byte("s")})
	defer bare.Close()
	if conn, err := bare.Attach(1); err == nil {
		conn.Close()
		t.Fatal("Attach accepted a Secret with neither Members nor Addrs")
	}
	named := NewTCPNetwork(TCPNetworkConfig{Secret: []byte("s"), Members: []wire.NodeID{1, 2}})
	defer named.Close()
	if _, err := named.Attach(1); err != nil {
		t.Fatalf("Attach with Members: %v", err)
	}
}
