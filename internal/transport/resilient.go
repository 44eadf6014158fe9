package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/wire"
)

// The resilience layer hardens any Network against message loss and
// connection churn with an envelope-level ARQ protocol:
//
//   - Every application envelope to a peer carries a per-peer sequence
//     number in wire.Envelope.LinkSeq (assigned here, outside the signed
//     bytes — a retransmission never needs re-signing) and is kept in a
//     bounded resend window — a ring in send order, O(1) per frame — until
//     the peer's cumulative ack covers it. The envelope itself ships
//     unmodified: no re-encode, no payload copy. The window is flow
//     control: a send that finds it full waits for acks to make room, so
//     no frame is ever given up while it may still be on the wire.
//   - Receivers guarantee exactly-once delivery, not ordering: every
//     frame is released to the protocol the moment it arrives, and a
//     duplicate (a resend that raced its ack, or a replay after
//     reconnect) is dropped by seq — so a kill-and-replay cycle loses
//     nothing and duplicates nothing. The protocol layer is an
//     asynchronous BFT protocol that absorbs reordering natively, and
//     the raw network reorders anyway; re-sequencing here would only add
//     head-of-line blocking on every jittered frame. Frames delivered
//     above the contiguous prefix are remembered as merged seq ranges
//     for dedup until the gap beneath them is repaired. Unsequenced
//     envelopes (LinkSeq zero: unwrapped peers) pass through.
//   - Acks are cumulative and piggyback on data (wire.Envelope.LinkAck,
//     TCP-style): every sequenced envelope out carries the newest ack
//     for the reverse direction, so a steadily bidirectional link ships
//     zero standalone control frames. Dedicated wire.BlockLink frames
//     cover the rest: eager acks every quarter window of delivered frames
//     on one-way floods and whenever a frame opens or closes a hole, and a
//     ticker that sends heartbeats (carrying the ack) to peers the data
//     path has left silent, and resends unacked frames older than the
//     resend timeout. Heartbeats
//     double as failure detection: a peer not heard from for
//     SuspectAfter (DeadAfter) intervals is suspect (dead), and a dead
//     peer heard again counts as a reconnect.
//   - A gap is repaired when it is seen, not when a timer fires: a data
//     frame landing above a hole makes the receiver answer at once with
//     an ack that also names the low edge of what it holds above the
//     hole. The sender resends exactly the frames of that hole it still
//     holds (each at most once per smoothed round trip; a sender blocked
//     on its full window sends what it never resent at once). The only
//     seqs a sender no longer holds are abandoned ones — sends the inner
//     conn rejected, which never reached the wire — and for those it
//     sends a floor: the receiver advances its contiguous prefix over
//     them, so a rejected send never freezes the receiver's ack.
//
// Layering: session → ResilientConn → Hub/TCPNode. Over TCP the node's
// own redial replaces the conn; the link layer replays what the dead conn
// lost. Over the in-memory Hub the same protocol masks the drops,
// duplicates, delays and blackouts the Hub's fault model injects.

// Link control kinds, carried in Tag.Step of BlockLink envelopes. (Value 1
// once marked wrapped data frames; data now rides Envelope.LinkSeq. Do not
// reuse.)
//
// Every kind carries the cumulative ack in Tag.Round. The payload is empty
// or one uvarint: on an ack or heartbeat the gap hint (the lowest seq the
// receiver holds above its first hole), on a floor the floor itself.
const (
	linkAck       = 2 // eager: every quarter window of frames, or at once on a hole
	linkHeartbeat = 3 // from the ticker
	linkFloor     = 4 // the sender holds nothing at or below the floor any more
)

// ResilientConfig tunes the link layer. The zero value gets defaults
// suitable for in-process experiments; real WAN deployments raise the
// intervals.
type ResilientConfig struct {
	// HeartbeatEvery is the tick interval: heartbeats out, health and
	// resend checks. Default 50ms — on an otherwise idle link a peer is
	// suspect after 200ms and dead after 600ms, while the tick overhead
	// stays invisible next to protocol traffic even with hundreds of
	// attachments in one process.
	HeartbeatEvery time.Duration
	// ResendAfter is how long an unacked frame waits before it is resent
	// (the retransmission timeout). Default 4×HeartbeatEvery.
	ResendAfter time.Duration
	// SuspectAfter and DeadAfter are how many heartbeat intervals of
	// silence move a peer to suspect / dead. Defaults 4 and 12.
	SuspectAfter int
	DeadAfter    int
	// MaxUnacked bounds the per-peer resend window, and is the link's flow
	// control: a send that finds the window full waits until acks make
	// room, or until the peer is declared dead (the envelope is then
	// dropped and counted in Overflow), or until Close. Receivers ack every
	// quarter window, so every attachment of a deployment uses the same
	// value. Default 1024: bench's market16-tcp never filled it even when a
	// full window evicted (overflow_per_round 0), so no sender waits there.
	MaxUnacked int
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.ResendAfter <= 0 {
		c.ResendAfter = 4 * c.HeartbeatEvery
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 12
	}
	if c.MaxUnacked <= 0 {
		c.MaxUnacked = 1024
	}
	return c
}

// LinkStats counts the link layer's work.
type LinkStats struct {
	Resends     int64 // unacked frames retransmitted
	Reconnects  int64 // suspect/dead peers heard from again
	DupsDropped int64 // duplicate data frames discarded by seq
	Overflow    int64 // envelopes dropped unsent: the window was full and the peer dead
	Heartbeats  int64 // heartbeats sent
}

// Add returns the component-wise sum.
func (a LinkStats) Add(b LinkStats) LinkStats {
	return LinkStats{
		Resends:     a.Resends + b.Resends,
		Reconnects:  a.Reconnects + b.Reconnects,
		DupsDropped: a.DupsDropped + b.DupsDropped,
		Overflow:    a.Overflow + b.Overflow,
		Heartbeats:  a.Heartbeats + b.Heartbeats,
	}
}

// ResilientNetwork wraps an inner Network so that every attachment speaks
// the link-layer ARQ protocol.
type ResilientNetwork struct {
	inner Network
	cfg   ResilientConfig

	mu        sync.Mutex
	conns     []*ResilientConn
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
	tickConns []*ResilientConn // ticker scratch, touched only by run
}

var _ Network = (*ResilientNetwork)(nil)

// Resilient layers reliable delivery and failure detection over inner.
// All attachments of one deployment must agree on wrapping (the link
// framing is wire-visible). One shared ticker drives every attachment's
// heartbeats, resends and health checks — a deployment multiplexing
// hundreds of attachments in one process gets one timer wakeup per
// interval, not hundreds.
func Resilient(inner Network, cfg ResilientConfig) *ResilientNetwork {
	n := &ResilientNetwork{inner: inner, cfg: cfg.withDefaults(), done: make(chan struct{})}
	n.wg.Add(1)
	go n.run()
	return n
}

// run is the shared link ticker across all attachments.
func (n *ResilientNetwork) run() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case now := <-t.C:
			n.mu.Lock()
			conns := append(n.tickConns[:0], n.conns...)
			n.tickConns = conns
			n.mu.Unlock()
			for _, c := range conns {
				c.tick(now)
			}
		}
	}
}

// Attach implements Network.
func (n *ResilientNetwork) Attach(id wire.NodeID) (Conn, error) {
	inner, err := n.inner.Attach(id)
	if err != nil {
		return nil, err
	}
	c := newResilientConn(inner, n.cfg)
	n.mu.Lock()
	n.conns = append(n.conns, c)
	n.mu.Unlock()
	return c, nil
}

// Stats implements Network with the inner network's counters (link
// traffic included: resends and heartbeats are real messages).
func (n *ResilientNetwork) Stats() StatsSnapshot { return n.inner.Stats() }

// LinkStats sums the link-layer counters across attachments.
func (n *ResilientNetwork) LinkStats() LinkStats {
	n.mu.Lock()
	conns := append([]*ResilientConn(nil), n.conns...)
	n.mu.Unlock()
	var total LinkStats
	for _, c := range conns {
		total = total.Add(c.LinkStats())
	}
	return total
}

// Close implements Network. Senders waiting on a window are released
// first, and the inner network closes before the ticker is waited for: a
// tick may be inside a TCP redial, which only the inner node's close
// interrupts.
func (n *ResilientNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := append([]*ResilientConn(nil), n.conns...)
	n.mu.Unlock()
	close(n.done)
	for _, c := range conns {
		c.stop()
	}
	err := n.inner.Close()
	n.wg.Wait()
	return err
}

// linkPeer is the per-peer link state: sender window, receiver dedup
// and the health verdict.
type linkPeer struct {
	id wire.NodeID

	mu sync.Mutex
	// Sender side. The resend window is a ring in send order holding
	// exactly the seqs (nextSeq-n, nextSeq]: every assigned seq is
	// tracked, and slots leave only from the old end, when acked, so a seq
	// finds its frame by offset. A slot may be empty (LinkSeq zero): its
	// send was rejected and handed back to the caller (abandon). An empty
	// slot has nothing to resend and is what a floor is drawn over.
	nextSeq uint64 // last assigned sequence number
	ring    []linkFrame
	head, n int
	room    sync.Cond     // on mu: the window shrank, the peer died, or the conn closed
	srtt    time.Duration // smoothed send-to-ack time; zero until sampled
	hint    uint64        // the last gap hint: the peer held it and lacked the seqs below
	// Receiver side.
	contig       uint64     // every seq ≤ contig is delivered or abandoned
	ahead        []seqRange // delivered above contig: sorted, disjoint, non-adjacent
	recvSinceAck int        // delivered frames since the last ack shipped
	ackNow       bool       // a frame opened or closed a hole: answer at once
	lastAckSent  uint64     // contig value carried by the last ack/heartbeat out
	ackDirtyAt   time.Time  // when contig first moved past lastAckSent
	lastDataSent time.Time  // when we last sent this peer a data frame
	// Health.
	lastHeard time.Time
	state     HealthState
}

// ResilientConn is one attachment's link layer: a Conn over a Conn.
type ResilientConn struct {
	inner Conn
	cfg   ResilientConfig
	self  wire.NodeID
	box   Mailbox // restored envelopes, on their way to the layer above; closed by stop

	mu    sync.Mutex
	peers map[wire.NodeID]*linkPeer

	// Ticker scratch, reused across ticks; touched only by the network's
	// ticker goroutine.
	tickPeers  []*linkPeer
	tickResend []wire.Envelope

	resends, reconnects, dups, overflow, heartbeats atomic.Int64
}

var (
	_ Conn           = (*ResilientConn)(nil)
	_ HealthReporter = (*ResilientConn)(nil)
)

// newResilientConn builds the link layer over one connection; its
// network's shared ticker drives it.
func newResilientConn(inner Conn, cfg ResilientConfig) *ResilientConn {
	cfg = cfg.withDefaults()
	c := &ResilientConn{
		inner: inner,
		cfg:   cfg,
		self:  inner.Self(),
		peers: make(map[wire.NodeID]*linkPeer),
	}
	c.box.Init(connQueueCap, 0)
	inner.SetHandler(c.onInner)
	inner.SetBatchHandler(c.onInnerBatch)
	return c
}

// Self implements Conn.
func (c *ResilientConn) Self() wire.NodeID { return c.self }

// peer returns (creating if needed) the link state for id.
func (c *ResilientConn) peer(id wire.NodeID) *linkPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[id]
	if !ok {
		p = &linkPeer{id: id, lastHeard: time.Now()}
		p.room.L = &p.mu
		c.peers[id] = p
	}
	return p
}

// peerList appends every peer's link state to dst.
func (c *ResilientConn) peerList(dst []*linkPeer) []*linkPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.peers {
		dst = append(dst, p)
	}
	return dst
}

// LinkStats implements HealthReporter.
func (c *ResilientConn) LinkStats() LinkStats {
	return LinkStats{
		Resends:     c.resends.Load(),
		Reconnects:  c.reconnects.Load(),
		DupsDropped: c.dups.Load(),
		Overflow:    c.overflow.Load(),
		Heartbeats:  c.heartbeats.Load(),
	}
}

// SetHandler implements Conn.
func (c *ResilientConn) SetHandler(h Handler) { c.box.SetHandler(h) }

// SetBatchHandler implements Conn.
func (c *ResilientConn) SetBatchHandler(h BatchHandler) { c.box.SetBatchHandler(h) }

// stop halts delivery and releases senders waiting on a window, without
// closing the inner conn (the network wrapper closes inner once, for all
// attachments). Idempotent.
func (c *ResilientConn) stop() {
	c.box.Close()
	for _, p := range c.peerList(nil) {
		p.mu.Lock() // a waiter checks the box under mu: no wakeup falls between
		p.room.Broadcast()
		p.mu.Unlock()
	}
}

// Close implements Conn.
func (c *ResilientConn) Close() error {
	c.stop()
	return c.inner.Close()
}
