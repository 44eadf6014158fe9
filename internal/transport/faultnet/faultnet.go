// Package faultnet wraps a transport.Network with deterministic, seeded
// fault injection: message drop, delay and duplication, connection kills
// with a blackout window, one-way partitions, and per-peer fault
// profiles. Tests and `marketd -chaos` compose it under the resilience
// layer — Resilient(faultnet.Wrap(inner)) — to prove that the seq/resend
// protocol masks exactly the faults injected here.
//
// All injection happens on the send side of the wrapped connections, so
// one wrapper covers every link regardless of the inner transport's
// delivery machinery. Every random decision flows from Config.Seed, so a
// failing chaos run replays bit-for-bit (modulo goroutine scheduling).
package faultnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Profile is one sender's fault mix. Probabilities are per message (and
// per frame for superframes: a dropped superframe loses the whole batch,
// exactly like a lost wire frame would).
type Profile struct {
	// Drop is the probability a send is silently discarded.
	Drop float64
	// Dup is the probability a send is delivered twice.
	Dup float64
	// DelayProb is the probability a send is deferred by a uniform delay
	// in [DelayMin, DelayMax].
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
}

// Config configures a fault-injecting network.
type Config struct {
	// Seed fixes every random decision. Same seed, same fault schedule.
	Seed int64
	// Default is the fault profile applied to every attached node.
	Default Profile
	// Peers overrides the profile for specific senders (per-peer fault
	// schedules: a flaky bidder, a lossy provider uplink).
	Peers map[wire.NodeID]Profile
	// KillEvery, per node, kills that node's connections after every N
	// sends (0 = never). Over TCP the inner conns are really closed; over
	// the in-memory Hub the kill is modelled as a Blackout-long window in
	// which all of the node's traffic — both directions — is dropped.
	KillEvery map[wire.NodeID]int
	// Blackout is how long a killed node's traffic stays dark (default
	// 25ms).
	Blackout time.Duration
}

// Stats counts injected faults.
type Stats struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Kills      int64
}

// Network is the fault-injecting transport.Network wrapper.
type Network struct {
	inner transport.Network
	cfg   Config

	mu            sync.Mutex
	conns         map[wire.NodeID]*faultConn
	partitions    map[[2]wire.NodeID]struct{}
	blackoutUntil map[wire.NodeID]time.Time
	closed        bool

	timers sync.WaitGroup // in-flight delayed deliveries

	dropped, duplicated, delayed, kills atomic.Int64
}

var _ transport.Network = (*Network)(nil)

// Wrap layers fault injection over inner.
func Wrap(inner transport.Network, cfg Config) *Network {
	if cfg.Blackout == 0 {
		cfg.Blackout = 25 * time.Millisecond
	}
	return &Network{
		inner:         inner,
		cfg:           cfg,
		conns:         make(map[wire.NodeID]*faultConn),
		partitions:    make(map[[2]wire.NodeID]struct{}),
		blackoutUntil: make(map[wire.NodeID]time.Time),
	}
}

// Attach implements transport.Network.
func (n *Network) Attach(id wire.NodeID) (transport.Conn, error) {
	inner, err := n.inner.Attach(id)
	if err != nil {
		return nil, err
	}
	profile := n.cfg.Default
	if p, ok := n.cfg.Peers[id]; ok {
		profile = p
	}
	c := &faultConn{
		net:       n,
		inner:     inner,
		self:      id,
		profile:   profile,
		killEvery: n.cfg.KillEvery[id],
		// Distinct stream per node, still derived from the one seed.
		rng: rand.New(rand.NewSource(n.cfg.Seed ^ (int64(id)+1)*0x5851F42D4C957F2D)),
	}
	n.mu.Lock()
	n.conns[id] = c
	n.mu.Unlock()
	return c, nil
}

// Stats implements transport.Network with the inner network's counters
// (injected faults are reported separately by FaultStats).
func (n *Network) Stats() transport.StatsSnapshot { return n.inner.Stats() }

// FaultStats returns the injected-fault counters.
func (n *Network) FaultStats() Stats {
	return Stats{
		Dropped:    n.dropped.Load(),
		Duplicated: n.duplicated.Load(),
		Delayed:    n.delayed.Load(),
		Kills:      n.kills.Load(),
	}
}

// SetPartition installs or heals a one-way partition: traffic from →to is
// dropped while it is up. Call twice (both directions) for a full cut.
func (n *Network) SetPartition(from, to wire.NodeID, up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if up {
		n.partitions[[2]wire.NodeID{from, to}] = struct{}{}
	} else {
		delete(n.partitions, [2]wire.NodeID{from, to})
	}
}

// Kill kills node id's connections now: over TCP the inner conns are
// closed (the resilience layer must redial and replay), and in every case
// the node goes dark — all its traffic dropped, both directions — for the
// configured Blackout.
func (n *Network) Kill(id wire.NodeID) {
	n.kills.Add(1)
	n.mu.Lock()
	n.blackoutUntil[id] = time.Now().Add(n.cfg.Blackout)
	c := n.conns[id]
	n.mu.Unlock()
	if c != nil {
		if k, ok := c.inner.(interface{ KillConns() }); ok {
			k.KillConns()
		}
	}
}

// cut reports whether a send from→to is currently severed by a partition
// or a blackout window at either end.
func (n *Network) cut(from, to wire.NodeID, now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.partitions[[2]wire.NodeID{from, to}]; ok {
		return true
	}
	return now.Before(n.blackoutUntil[from]) || now.Before(n.blackoutUntil[to])
}

// Close implements transport.Network.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.inner.Close()
	n.timers.Wait()
	return err
}

// faultConn is one attachment with send-side fault injection. Receive
// paths delegate straight to the inner connection.
type faultConn struct {
	net       *Network
	inner     transport.Conn
	self      wire.NodeID
	profile   Profile
	killEvery int

	mu    sync.Mutex // guards rng and sends
	rng   *rand.Rand
	sends int
}

var _ transport.Conn = (*faultConn)(nil)

func (c *faultConn) Self() wire.NodeID { return c.self }

// verdict is one send's fate, drawn under c.mu.
type verdict struct {
	kill  bool
	drop  bool
	dup   bool
	delay time.Duration
}

func (c *faultConn) judge() verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v verdict
	c.sends++
	if c.killEvery > 0 && c.sends%c.killEvery == 0 {
		v.kill = true
	}
	p := c.profile
	if p.Drop > 0 && c.rng.Float64() < p.Drop {
		v.drop = true
		return v
	}
	if p.Dup > 0 && c.rng.Float64() < p.Dup {
		v.dup = true
	}
	if p.DelayProb > 0 && c.rng.Float64() < p.DelayProb {
		v.delay = p.DelayMin
		if span := p.DelayMax - p.DelayMin; span > 0 {
			v.delay += time.Duration(c.rng.Int63n(int64(span)))
		}
	}
	return v
}

func (c *faultConn) Send(env wire.Envelope) error {
	if c.net.cut(c.self, env.To, time.Now()) {
		c.net.dropped.Add(1)
		return nil
	}
	v := c.judge()
	if v.kill {
		// The kill takes this send down with the conn it rode on.
		c.net.Kill(c.self)
		c.net.dropped.Add(1)
		return nil
	}
	if v.drop {
		c.net.dropped.Add(1)
		return nil
	}
	if v.delay > 0 {
		c.net.delayed.Add(1)
		dup := v.dup
		c.net.timers.Add(1)
		time.AfterFunc(v.delay, func() {
			defer c.net.timers.Done()
			_ = c.inner.Send(env)
			if dup {
				c.net.duplicated.Add(1)
				_ = c.inner.Send(env)
			}
		})
		return nil
	}
	if err := c.inner.Send(env); err != nil {
		return err
	}
	if v.dup {
		c.net.duplicated.Add(1)
		return c.inner.Send(env)
	}
	return nil
}

// SendBatch applies faults at frame granularity: the whole superframe is
// dropped, duplicated or delayed as one unit, exactly as a wire frame
// would be.
func (c *faultConn) SendBatch(envs []wire.Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	if c.net.cut(c.self, envs[0].To, time.Now()) {
		c.net.dropped.Add(int64(len(envs)))
		return nil
	}
	v := c.judge()
	if v.kill {
		c.net.Kill(c.self)
		c.net.dropped.Add(int64(len(envs)))
		return nil
	}
	if v.drop {
		c.net.dropped.Add(int64(len(envs)))
		return nil
	}
	if v.delay > 0 {
		// The caller recycles envs after return; a deferred delivery owns
		// a copy (payload bytes stay shared — immutable once sent).
		cp := append([]wire.Envelope(nil), envs...)
		c.net.delayed.Add(1)
		dup := v.dup
		c.net.timers.Add(1)
		time.AfterFunc(v.delay, func() {
			defer c.net.timers.Done()
			_ = c.inner.SendBatch(cp)
			if dup {
				c.net.duplicated.Add(1)
				_ = c.inner.SendBatch(cp)
			}
		})
		return nil
	}
	if err := c.inner.SendBatch(envs); err != nil {
		return err
	}
	if v.dup {
		c.net.duplicated.Add(1)
		return c.inner.SendBatch(envs)
	}
	return nil
}

func (c *faultConn) SetHandler(h transport.Handler) { c.inner.SetHandler(h) }

func (c *faultConn) SetBatchHandler(h transport.BatchHandler) { c.inner.SetBatchHandler(h) }

func (c *faultConn) Close() error { return c.inner.Close() }
