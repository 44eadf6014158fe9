package transport

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
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

// linkFrame is one unacked outbound frame awaiting its cumulative ack.
type linkFrame struct {
	env    wire.Envelope // the wrapped link envelope, ready to resend
	sentAt time.Time     // last transmission
	resent bool          // transmitted more than once: no RTT sample (Karn)
}

// seqRange is an inclusive range of sequence numbers delivered above the
// contiguous prefix.
type seqRange struct{ lo, hi uint64 }

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
	c.box.Init(connQueueCap, true)
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

// base is the seq just below the window: seqs (base, nextSeq] are in it.
func (p *linkPeer) base() uint64 { return p.nextSeq - uint64(p.n) }

// frame returns the i-th oldest slot of the window.
func (p *linkPeer) frame(i int) *linkFrame {
	i += p.head
	if i >= len(p.ring) {
		i -= len(p.ring)
	}
	return &p.ring[i]
}

// track records a sequenced frame at the young end of the window. The
// envelope is stored by value — payload by reference, which is safe
// because payloads are immutable once handed to a transport. Caller holds
// p.mu and has assigned env.LinkSeq = p.nextSeq.
func (p *linkPeer) track(c *ResilientConn, env wire.Envelope, now time.Time) {
	if p.n == len(p.ring) {
		// Doubling, up to the bound; only a batch larger than the whole
		// window, admitted into an empty one, grows the ring past it.
		size := max(2*p.n, 16)
		if p.n < c.cfg.MaxUnacked {
			size = min(size, c.cfg.MaxUnacked)
		}
		ring := make([]linkFrame, size)
		for i := range p.n {
			ring[i] = *p.frame(i)
		}
		p.ring, p.head = ring, 0
	}
	*p.frame(p.n) = linkFrame{env: env, sentAt: now}
	p.n++
}

// release drops the k oldest frames, clearing their payload references.
func (p *linkPeer) release(k int) {
	for i := range k {
		*p.frame(i) = linkFrame{}
	}
	p.head = (p.head + k) % len(p.ring)
	p.n -= k
}

// abandon gives up on the k frames from seq first on, which the inner conn
// refused: their slots stay (the window's seqs stay contiguous), emptied.
func (p *linkPeer) abandon(first uint64, k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	base := p.base()
	for seq := max(first, base+1); seq < first+uint64(k); seq++ {
		*p.frame(int(seq - base - 1)) = linkFrame{resent: true} // no RTT sample from an empty slot
	}
}

// resend stamps a held frame for retransmission and appends it to out; an
// abandoned slot has nothing to send.
func (p *linkPeer) resend(f *linkFrame, now time.Time, out []wire.Envelope) []wire.Envelope {
	if f.env.LinkSeq == 0 {
		return out
	}
	f.env.LinkAck = p.contig // refresh the piggybacked ack
	f.sentAt, f.resent = now, true
	return append(out, f.env)
}

// overdue appends the frames the resend timeout catches: the run of
// overdue frames at the old end of the window, up to the first one sent or
// resent within the timeout. What is unacked behind such a frame waits for
// its ack or its next timeout — the oldest frame is the hole holding the
// cumulative ack back, and one stubborn loss must cost neither a window of
// retransmissions nor a walk of the window per tick.
func (p *linkPeer) overdue(c *ResilientConn, now time.Time, out []wire.Envelope) []wire.Envelope {
	for i := range p.n {
		f := p.frame(i)
		if now.Sub(f.sentAt) < c.cfg.ResendAfter {
			break
		}
		out = p.resend(f, now, out)
	}
	return out
}

// repair answers a gap hint: the peer has everything up to its ack (the
// caller released that) and seq lo, and lacks what lies between. Held
// frames of that hole are returned for resending unless (re)sent within
// the last smoothed round trip: a hint per frame landing above the hole
// must not become a resend per hint, and a frame merely overtaken on the
// wire gets to land. The wait is deliberately short — no deviation term, no
// lower bound: resending a frame that was only late costs one duplicate,
// waiting on one that was lost holds the window, and with it the sender.
// A blocked sender (roomLocked) resends at once what of the hole was never
// resent, and nothing else: it may run again before any of that lands.
// The returned floor, when above the ack, tops the abandoned slots at the
// bottom of the hole.
func (p *linkPeer) repair(c *ResilientConn, lo uint64, now time.Time, blocked bool) (out []wire.Envelope, floor uint64) {
	p.hint = lo
	base := p.base()
	hi := min(lo-1, p.nextSeq) // a hint past nextSeq names nothing we sent
	wait := c.cfg.ResendAfter  // no sample yet: nothing to tell lost from late
	if p.srtt != 0 {
		wait = min(wait, p.srtt)
	}
	floor = base // released by an ack newer than this hint
	for seq := base + 1; seq <= hi; seq++ {
		f := p.frame(int(seq - base - 1))
		if f.env.LinkSeq == 0 && floor == seq-1 {
			floor = seq // abandoned, and nothing held beneath it
		} else if blocked && !f.resent || !blocked && now.Sub(f.sentAt) >= wait {
			out = p.resend(f, now, out)
		}
	}
	return out, min(floor, hi)
}

// roomLocked waits until p's window has room for k more frames — for a
// batch larger than the whole window, until it is empty — and reports
// whether they may be sequenced. A wait ends without room when the conn
// closes (ErrClosed) or the peer is declared dead: the envelopes are then
// dropped unsequenced — no seq, so no hole for the receiver to wait on —
// counted in Overflow, and the send reports success, as a send into a
// crashed peer's socket would. Caller holds p.mu.
func (c *ResilientConn) roomLocked(p *linkPeer, k int) (bool, error) {
	for p.n > 0 && p.n+k > c.cfg.MaxUnacked {
		if c.box.Closed() {
			return false, ErrClosed
		}
		if p.state == HealthDead {
			c.overflow.Add(int64(k))
			return false, nil
		}
		// A blocked sender sends nothing more to land above a hole, so the
		// last hint is the only one before the heartbeat: repair it now.
		if p.hint > p.base()+1 {
			if out, _ := p.repair(c, p.hint, time.Now(), true); len(out) > 0 {
				p.mu.Unlock()
				c.resendAll(out)
				p.mu.Lock()
				continue
			}
		}
		p.room.Wait()
	}
	return true, nil
}

// Send implements Conn: the envelope is sequenced in place and buffered
// for resend, once the peer's window has room for it (roomLocked). Link
// control traffic passes through unsequenced.
//
// A send the inner conn rejects (peer not attached yet, conn closed, dial
// or write given up) is the caller's again: the error is returned and the
// link layer gives the frame up. Its seq stays consumed — other senders
// may already hold later ones — and the floor rule carries the receiver
// over it.
func (c *ResilientConn) Send(env wire.Envelope) error {
	if env.Tag.Block == wire.BlockLink {
		return c.inner.Send(env)
	}
	p := c.peer(env.To)
	p.mu.Lock()
	if ok, err := c.roomLocked(p, 1); !ok {
		p.mu.Unlock()
		return err
	}
	now := time.Now()
	p.nextSeq++
	env.LinkSeq = p.nextSeq
	env.LinkAck = p.shipAckLocked() // piggybacked ack for the reverse direction
	p.track(c, env, now)
	p.lastDataSent = now
	p.mu.Unlock()
	err := c.inner.Send(env)
	if err != nil {
		p.abandon(env.LinkSeq, 1)
	}
	return err
}

// SendBatch implements Conn: each envelope of the superframe is
// sequenced in place (the layer owns the LinkSeq field) and buffered for
// resend, and the batch ships as one inner superframe — no re-encode, no
// copy, no allocation. The batch waits for room for all of its envelopes;
// one larger than MaxUnacked waits for an empty window and then fills it
// past the bound.
func (c *ResilientConn) SendBatch(envs []wire.Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	p := c.peer(envs[0].To)
	p.mu.Lock()
	if ok, err := c.roomLocked(p, len(envs)); !ok {
		p.mu.Unlock()
		return err
	}
	now := time.Now()
	ack := p.shipAckLocked() // piggybacked ack for the reverse direction
	for i := range envs {
		p.nextSeq++
		envs[i].LinkSeq = p.nextSeq
		envs[i].LinkAck = ack
		p.track(c, envs[i], now)
	}
	p.lastDataSent = now
	p.mu.Unlock()
	err := c.inner.SendBatch(envs)
	if err != nil {
		p.abandon(envs[0].LinkSeq, len(envs))
	}
	return err
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

// ackDue is a deferred eager ack: computed under the peer lock, shipped
// after release.
type ackDue struct {
	to     wire.NodeID
	contig uint64
	gapLo  uint64 // lowest seq held above the first hole; zero without one
	due    bool
}

// ackDueLocked reports whether an eager ack is warranted — a quarter
// window of frames arrived since the last one (so a sender with the same
// window never waits on a heartbeat for room), or one just opened or
// filled a hole — and resets the counters. Caller holds p.mu.
func (c *ResilientConn) ackDueLocked(p *linkPeer) ackDue {
	if !p.ackNow && p.recvSinceAck < max(c.cfg.MaxUnacked/4, 1) {
		return ackDue{}
	}
	p.ackNow = false
	return ackDue{to: p.id, contig: p.shipAckLocked(), gapLo: p.gapLo(), due: true}
}

// shipAckLocked returns the cumulative ack for a frame about to go out and
// records it as shipped. Caller holds p.mu.
func (p *linkPeer) shipAckLocked() uint64 {
	p.recvSinceAck = 0
	p.lastAckSent = p.contig
	return p.contig
}

// closesHole reports whether seq, landing at contig+1, fills the first
// hole to its top: acking each frame of a hole resent frame by frame would
// repeat the hint for the rest, still on its way. Caller holds p.mu.
func (p *linkPeer) closesHole(seq uint64) bool {
	return len(p.ahead) > 0 && p.ahead[0].lo == seq+1
}

// gapLo is the gap hint: the low edge of the first ahead range.
func (p *linkPeer) gapLo() uint64 {
	if len(p.ahead) == 0 {
		return 0
	}
	return p.ahead[0].lo
}

func (c *ResilientConn) sendAck(a ackDue) {
	if a.due {
		c.sendControl(a.to, linkAck, a.contig, a.gapLo)
	}
}

// sendControl ships one link control frame; arg zero means no payload.
func (c *ResilientConn) sendControl(to wire.NodeID, kind uint8, ack, arg uint64) {
	env := wire.Envelope{
		From: c.self,
		To:   to,
		Tag:  wire.Tag{Round: ack, Block: wire.BlockLink, Step: kind},
	}
	if arg != 0 {
		env.Payload = binary.AppendUvarint(nil, arg)
	}
	_ = c.inner.Send(env)
}

// resendAll retransmits frames stamped by linkPeer.resend.
func (c *ResilientConn) resendAll(envs []wire.Envelope) {
	for i := range envs {
		c.resends.Add(1)
		_ = c.inner.Send(envs[i])
	}
}

// onControl processes one link control frame: always a cumulative ack,
// and either a gap hint to repair (we are the sender of the hole) or a
// floor to advance over (we are its receiver).
func (c *ResilientConn) onControl(env *wire.Envelope, now time.Time) {
	ack := env.Tag.Round
	arg, n := binary.Uvarint(env.Payload)
	if n <= 0 || n != len(env.Payload) {
		arg = 0 // empty, truncated or over-long: a plain ack
	}
	var resend []wire.Envelope
	var floor uint64
	p := c.peer(env.From)
	p.mu.Lock()
	p.heard(c, now)
	p.dropAckedLocked(ack, now)
	switch {
	case env.Tag.Step == linkFloor:
		// A floor only fills the hole it was drawn for: it never reaches
		// what is already delivered above, and without a hole it is stale.
		if len(p.ahead) > 0 {
			if to := min(arg, p.ahead[0].lo-1); to > p.contig {
				p.advance(to, now)
			}
		}
	case arg > ack+1:
		resend, floor = p.repair(c, arg, now, false)
	}
	contig := p.contig
	p.mu.Unlock()
	if floor > ack {
		c.sendControl(env.From, linkFloor, contig, floor)
	}
	c.resendAll(resend)
}

// dropAckedLocked releases the window prefix a cumulative ack covers and
// samples the round trip from the newest frame released, unless it was
// ever retransmitted. A stale or zero ack is a no-op. Caller holds p.mu.
func (p *linkPeer) dropAckedLocked(ack uint64, now time.Time) {
	base := p.base()
	if ack <= base || p.n == 0 {
		return
	}
	k := int(min(ack-base, uint64(p.n)))
	if f := p.frame(k - 1); !f.resent {
		rtt := max(now.Sub(f.sentAt), 1)
		if p.srtt == 0 {
			p.srtt = rtt
		} else {
			p.srtt += (rtt - p.srtt) / 8
		}
	}
	p.release(k)
	p.room.Broadcast()
}

// advance moves the contiguous prefix to seq and absorbs every ahead range
// that now touches it. Caller holds p.mu.
func (p *linkPeer) advance(seq uint64, now time.Time) {
	if p.contig == p.lastAckSent {
		p.ackDirtyAt = now
	}
	p.contig = seq
	p.mergeAhead()
}

// mergeAhead absorbs into contig every ahead range that now touches the
// contiguous prefix. Caller holds p.mu.
func (p *linkPeer) mergeAhead() {
	n := 0
	for n < len(p.ahead) && p.ahead[n].lo == p.contig+1 {
		p.contig = p.ahead[n].hi
		n++
	}
	if n > 0 {
		p.ahead = p.ahead[:copy(p.ahead, p.ahead[n:])]
	}
}

// markAhead records [lo,hi] as delivered above the contiguous prefix,
// coalescing with adjacent ranges. It returns false — recording nothing —
// when the range overlaps one already delivered (a duplicate). Caller
// holds p.mu; lo must exceed p.contig+1.
func (p *linkPeer) markAhead(lo, hi uint64) bool {
	a := p.ahead
	// First range that could touch [lo,hi]: ends at lo-1 or later.
	i := sort.Search(len(a), func(i int) bool { return a[i].hi+1 >= lo })
	switch {
	case i == len(a):
		p.ahead = append(a, seqRange{lo, hi})
	case a[i].lo <= hi && a[i].hi >= lo:
		return false // overlap: already delivered
	case a[i].hi+1 == lo:
		// Extends a[i] rightward; the next range may now be adjacent too.
		a[i].hi = hi
		if i+1 < len(a) && a[i+1].lo == hi+1 {
			a[i].hi = a[i+1].hi
			p.ahead = a[:i+1+copy(a[i+1:], a[i+2:])]
		}
	case a[i].lo == hi+1:
		a[i].lo = lo // extends a[i] leftward
	default:
		a = append(a, seqRange{})
		copy(a[i+1:], a[i:])
		a[i] = seqRange{lo, hi}
		p.ahead = a
	}
	return true
}

// ingestLocked runs the receiver side of the ARQ for one data frame:
// exact dedup by seq, immediate release. Fresh envelopes are appended to
// out; the caller dispatches after releasing p.mu (held here).
func (c *ResilientConn) ingestLocked(p *linkPeer, env *wire.Envelope, out []wire.Envelope, now time.Time) []wire.Envelope {
	p.heard(c, now)
	p.dropAckedLocked(env.LinkAck, now) // piggybacked ack for our own sends
	seq := env.LinkSeq
	switch {
	case seq <= p.contig:
		c.dups.Add(1) // resend that raced its ack; already delivered
	case seq == p.contig+1:
		out = append(out, *env)
		p.recvSinceAck++
		p.ackNow = p.ackNow || p.closesHole(seq) // the sender may be waiting on it
		p.advance(seq, now)
	default:
		// Above a gap: deliver now anyway (the protocol absorbs
		// reordering), remember the seq so the resend that repairs the
		// gap cannot re-deliver it, and ask for that repair at once.
		if p.markAhead(seq, seq) {
			out = append(out, *env)
			p.recvSinceAck++
			p.ackNow = true
		} else {
			c.dups.Add(1)
		}
	}
	return out
}

// onInner processes one inbound envelope from the wrapped transport. It
// runs as the inner conn's handler — on a Hub, the delivery loop every conn
// shares — so it hands envelopes up without waiting for room in a
// pre-handler queue (Mailbox.deliver); so does onInnerBatch.
func (c *ResilientConn) onInner(env wire.Envelope) {
	if env.Tag.Block == wire.BlockLink {
		c.onControl(&env, time.Now())
		return
	}
	if env.LinkSeq == 0 {
		c.box.deliver(env, false) // an unwrapped peer; pass through
		return
	}
	now := time.Now()
	p := c.peer(env.From)
	var out []wire.Envelope
	p.mu.Lock()
	out = c.ingestLocked(p, &env, out, now)
	ack := c.ackDueLocked(p)
	p.mu.Unlock()
	c.sendAck(ack)
	for i := range out {
		c.box.deliver(out[i], false)
	}
}

// onInnerBatch processes one inbound superframe: every fresh envelope
// across the batch is released in one dispatch, preserving the one-hop
// batch path end to end. The common case — one sender, consecutive
// sequence numbers, no frame seen before — is recognised up front and
// the batch is handed on exactly as received: one lock round-trip, zero
// allocations, zero copies.
func (c *ResilientConn) onInnerBatch(envs []wire.Envelope) {
	if len(envs) == 0 {
		return
	}
	// Fast-path probe: all data frames from one sender with consecutive
	// sequence numbers.
	from, first := envs[0].From, envs[0].LinkSeq
	fast := first != 0
	for i := range envs {
		if envs[i].Tag.Block == wire.BlockLink || envs[i].From != from ||
			envs[i].LinkSeq != first+uint64(i) {
			fast = false
			break
		}
	}
	if fast {
		now := time.Now()
		last := first + uint64(len(envs)) - 1
		p := c.peer(from)
		p.mu.Lock()
		ok := false
		switch {
		case first == p.contig+1 && (len(p.ahead) == 0 || p.ahead[0].lo > last):
			// Extends the contiguous prefix without touching anything
			// already delivered ahead of it.
			p.ackNow = p.ackNow || p.closesHole(last)
			p.advance(last, now)
			ok = true
		case first > p.contig+1:
			// A batch above a gap: deliver it now, remember the range, ask
			// for the repair.
			ok = p.markAhead(first, last)
			p.ackNow = p.ackNow || ok
		}
		if ok {
			p.heard(c, now)
			// Acks are monotone and stamped in send order: the last
			// envelope's piggybacked ack is the newest.
			p.dropAckedLocked(envs[len(envs)-1].LinkAck, now)
			p.recvSinceAck += len(envs)
			ack := c.ackDueLocked(p)
			p.mu.Unlock()
			c.sendAck(ack)
			c.box.deliverBatch(envs, false)
			return
		}
		p.mu.Unlock() // replayed frames inside; the slow path dedups each
	}
	out := make([]wire.Envelope, 0, len(envs))
	now := time.Now()
	var p *linkPeer
	// unlock ends one peer's run of frames: its eager ack, if due, ships
	// outside the lock.
	unlock := func() {
		if p != nil {
			a := c.ackDueLocked(p)
			p.mu.Unlock()
			c.sendAck(a)
			p = nil
		}
	}
	for i := range envs {
		e := &envs[i]
		switch {
		case e.Tag.Block == wire.BlockLink:
			unlock()
			c.onControl(e, now)
		case e.LinkSeq == 0:
			out = append(out, *e)
		default:
			if p == nil || p.id != e.From {
				unlock()
				p = c.peer(e.From)
				p.mu.Lock()
			}
			out = c.ingestLocked(p, e, out, now)
		}
	}
	unlock()
	if len(out) > 0 {
		c.box.deliverBatch(out, false)
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
