package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distauction/internal/deviation"
	"distauction/internal/market"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// connPairs is every way the tree constructs a transport.Conn. Each entry
// returns node 1's and node 2's connection on a fresh network.
var connPairs = []struct {
	name string
	pair func(t *testing.T) (a, b transport.Conn)
}{
	{"Hub", func(t *testing.T) (a, b transport.Conn) {
		return attachPair(t, transport.NewHub(transport.LatencyModel{}, 1))
	}},
	{"TCPNetwork", func(t *testing.T) (a, b transport.Conn) {
		return attachPair(t, transport.NewTCPNetwork(transport.TCPNetworkConfig{
			Members: []wire.NodeID{1, 2}, Secret: []byte("contract"),
			DialTimeout: 100 * time.Millisecond, // a send to a closed peer gives up quickly
		}))
	}},
	{"Resilient(Hub)", func(t *testing.T) (a, b transport.Conn) {
		return attachPair(t, transport.Resilient(transport.NewHub(transport.LatencyModel{}, 1), transport.ResilientConfig{}))
	}},
	{"Hub(Faults)", func(t *testing.T) (a, b transport.Conn) {
		// Delay only: a fault-delayed hop rides the delivery scheduler, which
		// must keep the contract; drops and dups are Resilient's to hide.
		hub := transport.NewHub(transport.LatencyModel{}, 1)
		hub.SetFaults(transport.Faults{DelayProb: 0.5, DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond})
		return attachPair(t, hub)
	}},
	{"Mux lane", func(t *testing.T) (a, b transport.Conn) {
		ca, cb := attachPair(t, transport.NewHub(transport.LatencyModel{}, 1))
		lane := func(c transport.Conn) transport.Conn {
			m := market.NewMux(c)
			t.Cleanup(func() { m.Close() })
			lc, err := m.Lane(3)
			if err != nil {
				t.Fatal(err)
			}
			return lc
		}
		return lane(ca), lane(cb)
	}},
	{"deviation.Wrap", func(t *testing.T) (a, b transport.Conn) {
		ca, cb := attachPair(t, transport.NewHub(transport.LatencyModel{}, 1))
		return deviation.Wrap(ca), deviation.Wrap(cb)
	}},
}

func contractEnv(from, to wire.NodeID, i int, payload string) wire.Envelope {
	return wire.Envelope{
		From:    from,
		To:      to,
		Tag:     wire.Tag{Round: uint64(i), Block: wire.BlockTask, Step: 1},
		Payload: []byte(payload),
	}
}

func attachPair(t *testing.T, net transport.Network) (a, b transport.Conn) {
	t.Helper()
	t.Cleanup(func() { net.Close() })
	a, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err = net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// eventually polls cond; the transports deliver asynchronously.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnContract holds every Conn constructor to the one contract
// DESIGN.md "Transport abstraction" states.
func TestConnContract(t *testing.T) {
	for _, c := range connPairs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			t.Run("single and batch reach their handlers", func(t *testing.T) {
				a, b := c.pair(t)
				var singles, batched atomic.Int64
				b.SetHandler(func(env wire.Envelope) {
					if string(env.Payload) != "single" || env.From != 1 {
						t.Errorf("handler got %+v", env)
					}
					singles.Add(1)
				})
				b.SetBatchHandler(func(envs []wire.Envelope) {
					for i := range envs {
						if string(envs[i].Payload) != "batch" || envs[i].Tag.Round != uint64(i+1) {
							t.Errorf("batch handler got %+v at %d", envs[i], i)
						}
					}
					batched.Add(int64(len(envs)))
				})
				if err := a.Send(contractEnv(1, 2, 0, "single")); err != nil {
					t.Fatal(err)
				}
				batch := []wire.Envelope{contractEnv(1, 2, 1, "batch"), contractEnv(1, 2, 2, "batch"), contractEnv(1, 2, 3, "batch")}
				if err := a.SendBatch(batch); err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					if batch[i].Tag.Instance != 0 {
						t.Errorf("SendBatch left envelope %d's tag rewritten: %+v", i, batch[i].Tag)
					}
				}
				eventually(t, "1 single and 3 batched envelopes", func() bool {
					return singles.Load() == 1 && batched.Load() == 3
				})
			})

			t.Run("queued before SetHandler, delivered exactly once", func(t *testing.T) {
				a, b := c.pair(t)
				// Under the smallest pre-handler queue in the tree (a lane's).
				const senders, perSender, early = 8, 25, 16
				const total = early + senders*perSender
				seen := make([]atomic.Int32, total)
				var got atomic.Int64
				for i := 0; i < early; i++ {
					if err := a.Send(contractEnv(1, 2, i, "")); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				start := make(chan struct{})
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						<-start
						for i := 0; i < perSender; i++ {
							if err := a.Send(contractEnv(1, 2, early+s*perSender+i, "")); err != nil {
								t.Error(err)
								return
							}
						}
					}(s)
				}
				close(start)
				// SetHandler lands in the middle of the senders' traffic.
				b.SetHandler(func(env wire.Envelope) {
					seen[env.Tag.Round].Add(1)
					got.Add(1)
				})
				wg.Wait()
				eventually(t, "every envelope", func() bool { return got.Load() >= total })
				for i := range seen {
					if n := seen[i].Load(); n != 1 {
						t.Fatalf("envelope %d delivered %d times", i, n)
					}
				}
			})

			t.Run("no handler call starts after Close returns", func(t *testing.T) {
				a, b := c.pair(t)
				var calls atomic.Int64
				b.SetHandler(func(wire.Envelope) { calls.Add(1) })
				b.SetBatchHandler(func(envs []wire.Envelope) { calls.Add(int64(len(envs))) })
				if err := a.Send(contractEnv(1, 2, 0, "")); err != nil {
					t.Fatal(err)
				}
				eventually(t, "the envelope sent before Close", func() bool { return calls.Load() == 1 })
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				if err := b.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
				for i := 1; i <= 3; i++ {
					_ = a.Send(contractEnv(1, 2, i, "")) // may fail: the peer is gone
					_ = a.SendBatch([]wire.Envelope{contractEnv(1, 2, 100+i, ""), contractEnv(1, 2, 200+i, "")})
				}
				time.Sleep(50 * time.Millisecond)
				if n := calls.Load(); n != 1 {
					t.Fatalf("%d handler calls after Close returned", n-1)
				}
			})
		})
	}
}
