package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"distauction/internal/wire"
)

func env(from, to wire.NodeID, payload string) wire.Envelope {
	return wire.Envelope{
		From:    from,
		To:      to,
		Tag:     wire.Tag{Round: 1, Block: wire.BlockTask, Step: 1},
		Payload: []byte(payload),
	}
}

func TestHubDuplicateAttach(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	if _, err := hub.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Attach(1); err == nil {
		t.Error("duplicate attach must fail")
	}
}

func TestHubUnknownDestination(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	a, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(env(1, 99, "x")); err == nil {
		t.Error("send to unknown node must fail")
	}
}

func TestSendWrongFrom(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	a, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Attach(2); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(env(2, 1, "spoof")); err == nil {
		t.Error("spoofed From must be rejected")
	}
}

func TestSendAfterClose(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	a, err := hub.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(env(1, 1, "x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: got %v, want ErrClosed", err)
	}
}

func TestLatencyModelDelays(t *testing.T) {
	hub := NewHub(LatencyModel{Base: 30 * time.Millisecond}, 42)
	defer hub.Close()
	a, _ := hub.Attach(1)
	b, _ := hub.Attach(2)

	start := time.Now()
	if err := a.Send(env(1, 2, "delayed")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := Pull(b).Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~30ms", elapsed)
	}
}

func TestLatencyModelPerByte(t *testing.T) {
	m := LatencyModel{Base: time.Millisecond, PerByte: time.Microsecond}
	hub := NewHub(m, 7)
	defer hub.Close()
	d := m.Delay(1000, hub.shards[0].rng)
	if d != time.Millisecond+1000*time.Microsecond {
		t.Errorf("delay = %v", d)
	}
	if !(LatencyModel{}).Zero() {
		t.Error("zero model not detected")
	}
	if CommunityNetModel().Zero() {
		t.Error("community model must not be zero")
	}
}

func TestManyToOneConcurrent(t *testing.T) {
	hub := NewHub(LatencyModel{Base: time.Millisecond, Jitter: 2 * time.Millisecond}, 3)
	defer hub.Close()
	const senders = 8
	const perSender = 50
	sink, err := hub.Attach(100)
	if err != nil {
		t.Fatal(err)
	}
	in := Pull(sink)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		conn, err := hub.Attach(wire.NodeID(s + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := c.Send(env(c.Self(), 100, fmt.Sprintf("m%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < senders*perSender; i++ {
		if _, err := in.Recv(ctx); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	snap := hub.Stats()
	if snap.MsgsSent != senders*perSender {
		t.Errorf("hub msgs = %d, want %d", snap.MsgsSent, senders*perSender)
	}
}

func TestHubCloseStopsTimers(t *testing.T) {
	hub := NewHub(LatencyModel{Base: 50 * time.Millisecond}, 1)
	a, _ := hub.Attach(1)
	if _, err := hub.Attach(2); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(env(1, 2, "inflight")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hub.Close()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("hub.Close hung waiting for timers")
	}
	if _, err := hub.Attach(3); !errors.Is(err, ErrClosed) {
		t.Errorf("attach after close: %v", err)
	}
}

func TestConnStats(t *testing.T) {
	hub := NewHub(LatencyModel{}, 1)
	defer hub.Close()
	a, _ := hub.Attach(1)
	b, _ := hub.Attach(2)
	if err := a.Send(env(1, 2, "12345")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Pull(b).Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if s := a.(*MemConn).Stats(); s.MsgsSent != 1 || s.BytesSent != 5 {
		t.Errorf("sender stats = %+v", s)
	}
	if s := b.(*MemConn).Stats(); s.MsgsReceived != 1 || s.BytesReceived != 5 {
		t.Errorf("receiver stats = %+v", s)
	}
}
