package transport

import (
	"cmp"
	"slices"
	"time"

	"distauction/internal/wire"
)

// HealthState is a peer's liveness as judged by heartbeat silence.
type HealthState uint8

const (
	// HealthAlive: heard from within SuspectAfter intervals.
	HealthAlive HealthState = iota
	// HealthSuspect: silent past SuspectAfter intervals.
	HealthSuspect
	// HealthDead: silent past DeadAfter intervals — the crash verdict the
	// protocol layer turns into a disconnect abort.
	HealthDead
)

// String returns the state's stable metric label.
func (s HealthState) String() string {
	switch s {
	case HealthAlive:
		return "alive"
	case HealthSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// PeerHealth is one peer's liveness snapshot.
type PeerHealth struct {
	Peer       wire.NodeID
	State      HealthState
	SinceHeard time.Duration // silence duration at snapshot time
}

// HealthReporter is implemented by connections that track per-peer
// liveness. The market mux forwards it from its attachment so that
// protocol timeouts can tell a crashed peer from a silent one, and stats
// surfaces can export the health table.
type HealthReporter interface {
	// PeerDead reports whether id has been declared dead (heartbeat
	// silence past the dead threshold).
	PeerDead(id wire.NodeID) bool
	// PeerHealth returns the liveness table, sorted by peer ID.
	PeerHealth() []PeerHealth
	// LinkStats returns the link-layer counters.
	LinkStats() LinkStats
}

// heard marks the peer live and reports a reconnect when it was suspect
// or dead. Caller holds p.mu.
func (p *linkPeer) heard(c *ResilientConn, now time.Time) {
	p.lastHeard = now
	if p.state != HealthAlive {
		p.state = HealthAlive
		c.reconnects.Add(1)
	}
}

// tick is one beat of the link ticker: heartbeats out (carrying cumulative
// acks), resend timeouts, health transitions.
func (c *ResilientConn) tick(now time.Time) {
	peers := c.peerList(c.tickPeers[:0])
	c.tickPeers = peers
	resend := c.tickResend
	defer func() { c.tickResend = resend[:0] }()
	for _, p := range peers {
		p.mu.Lock()
		// Health: silence thresholds in heartbeat intervals.
		silence := now.Sub(p.lastHeard)
		switch {
		case silence > time.Duration(c.cfg.DeadAfter)*c.cfg.HeartbeatEvery:
			if p.state != HealthDead {
				p.state = HealthDead
				p.room.Broadcast() // senders waiting on its window give up
			}
		case silence > time.Duration(c.cfg.SuspectAfter)*c.cfg.HeartbeatEvery:
			if p.state == HealthAlive {
				p.state = HealthSuspect
			}
		}
		// Retransmission: what the resend timeout, not a gap hint, catches
		// — tail loss, and repairs that were themselves lost.
		resend = p.overdue(c, now, resend[:0])
		// Heartbeat suppression: a peer we sent data to within the interval
		// has fresh proof of our liveness, and the ack that data carried is
		// either current or less than an interval behind with the next data
		// frame about to carry it — the heartbeat would be pure overhead.
		// An idle link keeps its heartbeat, and so does an open hole: the
		// hint rides it, so a repair is asked for again even when nothing
		// more lands above the hole.
		idle := now.Sub(p.lastDataSent) >= c.cfg.HeartbeatEvery
		stale := p.contig != p.lastAckSent && now.Sub(p.ackDirtyAt) >= c.cfg.HeartbeatEvery
		sendHB := idle || stale || len(p.ahead) > 0
		var contig, gapLo uint64
		if sendHB {
			contig, gapLo = p.shipAckLocked(), p.gapLo() // the heartbeat below carries the ack
		}
		p.mu.Unlock()
		c.resendAll(resend)
		if sendHB {
			c.heartbeats.Add(1)
			c.sendControl(p.id, linkHeartbeat, contig, gapLo)
		}
	}
}

// PeerDead implements HealthReporter.
func (c *ResilientConn) PeerDead(id wire.NodeID) bool {
	c.mu.Lock()
	p, ok := c.peers[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == HealthDead
}

// PeerHealth implements HealthReporter.
func (c *ResilientConn) PeerHealth() []PeerHealth {
	now := time.Now()
	peers := c.peerList(nil)
	out := make([]PeerHealth, 0, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		out = append(out, PeerHealth{Peer: p.id, State: p.state, SinceHeard: now.Sub(p.lastHeard)})
		p.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b PeerHealth) int { return cmp.Compare(a.Peer, b.Peer) })
	return out
}
