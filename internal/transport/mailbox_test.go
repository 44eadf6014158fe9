package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/wire"
)

// TestNoProducerWaitsOnHandlerlessConn sends more envelopes than the
// pre-handler queue is preallocated for to a conn nobody has installed a
// handler on. No producer may wait for one: a zero-latency Hub's sender
// returns from every send, and a TCP read loop keeps reading, so the
// receiving node counts every envelope before the handler exists. The
// handler, once installed, gets each envelope exactly once.
func TestNoProducerWaitsOnHandlerlessConn(t *testing.T) {
	const total = connQueueCap + 256
	// sendBound is how long one send may take: a send that waits for a
	// handler never returns, one that does not takes microseconds.
	const sendBound = time.Second

	networks := []struct {
		name string
		net  func() Network
	}{
		{"Hub", func() Network { return NewHub(LatencyModel{}, 1) }},
		{"TCPNetwork", func() Network {
			return NewTCPNetwork(TCPNetworkConfig{Members: []wire.NodeID{1, 2}, Secret: []byte("no-wait")})
		}},
	}
	for _, nw := range networks {
		t.Run(nw.name, func(t *testing.T) {
			net := nw.net()
			t.Cleanup(func() { net.Close() }) // releases a producer that did wait
			a, err := net.Attach(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := net.Attach(2)
			if err != nil {
				t.Fatal(err)
			}

			sent := make(chan error, 1)
			var slowest time.Duration // read only once sent has reported
			go func() {
				for i := range total {
					start := time.Now()
					err := a.Send(wire.Envelope{
						From: 1, To: 2,
						Tag:     wire.Tag{Round: uint64(i + 1), Block: wire.BlockTask, Step: 1},
						Payload: []byte("early"),
					})
					if err != nil {
						sent <- err
						return
					}
					slowest = max(slowest, time.Since(start))
				}
				sent <- nil
			}()
			select {
			case err := <-sent:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d sends to a handler-less conn not done after 10s", total)
			}
			if slowest > sendBound {
				t.Errorf("slowest send took %v, bound %v", slowest, sendBound)
			}
			received := func() int64 { return b.(interface{ Stats() StatsSnapshot }).Stats().MsgsReceived }
			deadline := time.Now().Add(10 * time.Second)
			for received() < total {
				if time.Now().After(deadline) {
					t.Fatalf("receiver counted %d of %d envelopes with no handler installed", received(), total)
				}
				time.Sleep(time.Millisecond)
			}

			seen := make([]atomic.Int32, total)
			b.SetHandler(func(env wire.Envelope) {
				if r := env.Tag.Round; r >= 1 && r <= total {
					seen[r-1].Add(1)
				} else {
					t.Errorf("handler got %+v", env)
				}
			})
			for i := range seen {
				if n := seen[i].Load(); n != 1 {
					t.Fatalf("envelope %d delivered %d times, want once", i+1, n)
				}
			}
		})
	}
}
