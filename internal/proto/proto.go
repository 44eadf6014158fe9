// Package proto is the protocol runtime of the distributed auctioneer.
//
// It layers three services over a transport.Conn:
//
//   - Tag routing: building blocks wait for messages by (round, block,
//     instance, step, sender) without seeing each other's traffic, matching
//     the paper's composition of blocks (§4).
//   - Duplicate and equivocation handling: a re-sent identical message is
//     absorbed; two *different* payloads from the same sender under the same
//     tag are an equivocation, which aborts the round (output ⊥).
//   - Abort (⊥) propagation: any provider that decides ⊥ broadcasts a
//     control message so no peer blocks forever waiting for it; every
//     pending and future receive in that round then fails with AbortError.
//
// The model is asynchronous with reliable channels (§3.3): messages are
// never lost but may be delayed and reordered arbitrarily. Receives accept a
// context; deadlines exist so that experiments with injected silent
// deviations terminate — under the paper's fair-schedule assumption an
// honest run never hits them.
//
// Routing state is striped: rounds hash onto a small array of shards, each
// with its own lock and per-round message index. Under pipelining, handle
// and Receive on different rounds touch different shards and do not
// contend, and EndRound reclaims a round by dropping its index — O(live
// rounds) — instead of sweeping every buffered message key.
//
// Concurrency contract (audited for the concurrent task scheduler): every
// method of Peer is safe for concurrent use. Any number of goroutines may
// Receive/GatherAppend on the same round concurrently — including on the same
// (tag, sender) key, where every waiter observes the one buffered payload —
// and sends, gathers and abort signalling may interleave freely. The only
// ordering requirements are the caller's own: EndRound must not run while
// the round still has in-flight block operations (they would observe
// ErrRoundEnded), and rounds must be ended in increasing order.
package proto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/trace"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Control message steps (wire.BlockControl).
const (
	// StepAbort carries an abort reason; receiving it poisons the round.
	StepAbort uint8 = 1
)

// ErrAborted is the sentinel matched by errors.Is for any round abort (the
// paper's ⊥ outcome).
var ErrAborted = errors.New("proto: round aborted (⊥)")

// AbortError describes why a round aborted.
type AbortError struct {
	Round   uint64
	From    wire.NodeID // provider that signalled the abort (self included)
	Reason  string
	Code    AbortCode   // typed cause (timeout, equivocation, MAC, …)
	Culprit wire.NodeID // deviant peer when attribution is known, else wire.Broadcast
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("proto: round %d aborted (⊥) by %d [%s]: %s", e.Round, e.From, e.Code, e.Reason)
}

// Is reports that an AbortError matches ErrAborted.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// DisconnectError reports a receive that gave up on a peer the transport's
// failure detector had already declared dead — the crash verdict, as
// opposed to the plain timeout of a slow-but-alive peer. It Is-matches
// context.DeadlineExceeded so that every timeout-tolerant path (a dead
// bidder degrades to a neutral bid exactly like a silent one) keeps
// working, while AbortCodeOf types it as AbortDisconnect.
type DisconnectError struct {
	Peer wire.NodeID
}

// Error implements error.
func (e *DisconnectError) Error() string {
	return fmt.Sprintf("proto: peer %d disconnected (missed heartbeats)", e.Peer)
}

// Is reports that a DisconnectError matches context.DeadlineExceeded.
func (e *DisconnectError) Is(target error) bool { return target == context.DeadlineExceeded }

// ErrPeerClosed reports use of a closed Peer.
var ErrPeerClosed = errors.New("proto: peer closed")

// ErrRoundEnded reports a receive on a round whose state was already
// reclaimed by EndRound. Before this sentinel existed, such a receive
// silently resurrected the retired round's routing state and then blocked
// until its context expired — a hazard once many goroutines of a round run
// concurrently and one may race the round's reclamation.
var ErrRoundEnded = errors.New("proto: round already ended")

// numShards is the number of round stripes. Rounds map onto shards round-
// robin, so with pipeline depth d at most ⌈d/numShards⌉ live rounds share a
// lock. A small power of two keeps the Peer footprint negligible while
// covering any realistic pipeline depth.
const numShards = 8

// msgKey identifies a message within one round's index: the tag minus the
// round (redundant there — the index is per round) plus the sender. Keeping
// it 12 bytes instead of a full 24-byte tag halves the map-hash work on the
// per-message hot path.
type msgKey struct {
	instance uint32
	from     wire.NodeID
	block    wire.BlockID
	step     uint8
}

func keyOf(tag wire.Tag, from wire.NodeID) msgKey {
	return msgKey{instance: tag.Instance, from: from, block: tag.Block, step: tag.Step}
}

// roundState is one round's complete routing state: its buffered messages
// and pending waiters (the per-round index EndRound reclaims in one delete)
// plus the abort latch.
//
// abortCh is lazily created: the delivery path never touches it, so a round
// whose receives are all satisfied from the buffer (the common push-mode
// case) never allocates it. Blocking receives materialise it on demand;
// latch closes it only if it exists.
type roundState struct {
	buffered map[msgKey][]byte
	waiters  map[msgKey]*waiterNode
	abortCh  chan struct{}             // nil until first subscriber
	abortErr *AbortError               // set before abortCh closes
	cancels  []context.CancelCauseFunc // RoundContext's; run once outside the lock
	// forbid is the round's Forbid registration (its from is zero), live
	// while forbidCause is non-nil; ingest checks every message against it.
	forbid      msgKey
	forbidCause *AbortError
}

// forbids reports whether the round's Forbid registration covers a message
// under key, whoever sent it.
func (rs *roundState) forbids(key msgKey) bool {
	key.from = 0
	return rs.forbidCause != nil && key == rs.forbid
}

// waiterNode is one blocked receive: its rendezvous channel plus an
// intrusive link, so registering any number of waiters on a key costs no
// slice allocation. Nodes (channel included) recycle through
// Peer.waiterPool; a node is pooled only when provably unreachable by any
// sender — consumed its one value, or unlinked under the shard lock.
type waiterNode struct {
	ch   chan []byte
	next *waiterNode
}

// shard is one stripe of the router: the rounds that hash onto it, guarded
// by a dedicated lock, plus a free list of retired round states. Recycling
// keeps the map bucket arrays alive across rounds — a pipelined session
// retires one round per round started, so steady state allocates no routing
// maps at all.
type shard struct {
	mu     sync.Mutex
	rounds map[uint64]*roundState
	free   []*roundState
}

// maxFree bounds a shard's free list; beyond it retired states go to the GC.
// Without the list, BenchmarkSteadyStateAllocs reads 214.5 allocs/round,
// not 133.2 (EXPERIMENTS.md).
const maxFree = 4

// roundLocked returns the state for round, creating (or recycling) it if
// needed. Caller holds s.mu.
func (s *shard) roundLocked(round uint64) *roundState {
	rs, ok := s.rounds[round]
	if !ok {
		if n := len(s.free); n > 0 {
			rs = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			rs = &roundState{
				buffered: make(map[msgKey][]byte),
				waiters:  make(map[msgKey]*waiterNode),
			}
		}
		if s.rounds == nil {
			s.rounds = make(map[uint64]*roundState)
		}
		s.rounds[round] = rs
	}
	return rs
}

// retireLocked closes round's pending waiters and recycles its state.
// Caller holds s.mu.
func (s *shard) retireLocked(round uint64, rs *roundState) {
	for _, ws := range rs.waiters {
		for n := ws; n != nil; {
			next := n.next // the receiver abandons n once the close lands
			close(n.ch)
			n = next
		}
	}
	delete(s.rounds, round)
	if len(s.free) >= maxFree {
		return
	}
	clear(rs.buffered)
	clear(rs.waiters)
	rs.abortCh = nil
	rs.abortErr = nil
	clear(rs.cancels)
	rs.cancels = rs.cancels[:0]
	rs.forbidCause = nil
	s.free = append(s.free, rs)
}

// Peer is one node's view of the protocol network.
type Peer struct {
	conn      transport.Conn
	self      wire.NodeID
	providers []wire.NodeID // sorted, may or may not include self
	lane      uint32        // marketplace lane, when conn carries one (trace labels)
	// health is the transport's failure detector, when the connection has
	// one: it upgrades receive timeouts on dead peers to DisconnectError.
	health interface{ PeerDead(wire.NodeID) bool }

	shards   [numShards]shard
	minRound atomic.Uint64 // rounds below this are retired; their messages drop
	closed   atomic.Bool

	// waiterPool recycles Receive's waiter nodes (rendezvous channel plus
	// link). A node is pooled only when no sender can reach it: its one
	// value was consumed, or dropWaiter unlinked it under the shard lock.
	// Without it, BenchmarkSteadyStateAllocs reads 203.6 allocs/round, not
	// 133.2 (EXPERIMENTS.md).
	waiterPool sync.Pool

	done      chan struct{}
	closeOnce sync.Once
}

// NewPeer wraps conn and starts message delivery. providers is the full
// provider set of the auction (used by broadcast and gather); it is copied
// and sorted.
//
// Inbound messages are dispatched directly in the transport's producing
// goroutines — senders and per-connection readers route into the striped
// shards concurrently.
func NewPeer(conn transport.Conn, providers []wire.NodeID) *Peer {
	ps := make([]wire.NodeID, len(providers))
	copy(ps, providers)
	SortNodes(ps)
	p := &Peer{
		conn:      conn,
		self:      conn.Self(),
		providers: ps,
		done:      make(chan struct{}),
	}
	if lc, ok := conn.(interface{ Lane() uint32 }); ok {
		p.lane = lc.Lane()
	}
	if hr, ok := conn.(interface{ PeerDead(wire.NodeID) bool }); ok {
		p.health = hr
	}
	conn.SetHandler(p.handle)
	// Superframes arrive as one call per batch; ingest runs of same-shard
	// messages under a single lock acquisition.
	conn.SetBatchHandler(p.handleBatch)
	return p
}

// Self returns the local node ID.
func (p *Peer) Self() wire.NodeID { return p.self }

// Lane returns the marketplace lane this peer's connection is attached to
// (0 when the transport carries no lane). Trace events use it to label
// spans per auction.
func (p *Peer) Lane() uint32 { return p.lane }

// Providers returns the provider set, sorted ascending. The slice is shared;
// callers must not modify it.
func (p *Peer) Providers() []wire.NodeID { return p.providers }

// shardFor returns the stripe that owns round.
func (p *Peer) shardFor(round uint64) *shard {
	return &p.shards[round&(numShards-1)]
}

// Close releases the underlying connection and wakes every waiter.
func (p *Peer) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.done)
		err = p.conn.Close()
		p.closed.Store(true)
		// Wake every waiter; they will observe the closed state.
		for i := range p.shards {
			sh := &p.shards[i]
			sh.mu.Lock()
			for _, rs := range sh.rounds {
				for _, ws := range rs.waiters {
					for n := ws; n != nil; {
						next := n.next
						close(n.ch)
						n = next
					}
				}
				clear(rs.waiters)
			}
			sh.mu.Unlock()
		}
	})
	return err
}

// handle routes one message. It is also the local delivery path for
// self-addressed sends.
func (p *Peer) handle(env wire.Envelope) {
	if env.Tag.Block == wire.BlockControl && env.Tag.Step == StepAbort {
		p.receiveAbort(env)
		return
	}
	one := [1]wire.Envelope{env}
	p.ingestRun(p.shardFor(env.Tag.Round), one[:])
}

// receiveAbort latches a provider's abort control message: reason, code,
// culprit. A truncated or garbled payload still aborts the round — ⊥ is
// never refused — with whichever fields decoded.
func (p *Peer) receiveAbort(env wire.Envelope) {
	ae := &AbortError{Round: env.Tag.Round, From: env.From, Reason: "unspecified", Culprit: wire.Broadcast}
	d := wire.NewDecoder(env.Payload)
	if s := d.String(); d.Err() == nil {
		ae.Reason = s
		if c := AbortCode(d.Uint8()); d.Err() == nil && c < NumAbortCodes {
			ae.Code = c
		}
		if id := d.Uint32(); d.Err() == nil {
			ae.Culprit = wire.NodeID(id)
		}
	}
	p.latch(ae)
}

// encodeAbort is the abort control payload receiveAbort decodes.
func encodeAbort(ae *AbortError) []byte {
	enc := wire.NewEncoder(len(ae.Reason) + 9)
	enc.String(ae.Reason)
	enc.Uint8(uint8(ae.Code))
	enc.Uint32(uint32(ae.Culprit))
	return enc.Buffer()
}

// handleBatch ingests one superframe's envelopes in the producing
// goroutine: a single dispatch hop for the whole batch. Consecutive
// messages whose rounds share a shard are ingested under ONE lock
// acquisition — a burst of protocol steps for the same round (the common
// superframe content) pays one lock instead of one per message. Control
// (abort) messages take the ordinary path, so a ⊥ riding a superframe
// behaves exactly as it would alone.
//
// Payloads are buffered as-is: on stream transports they are views into
// the received frame, so one buffered envelope pins its whole frame until
// the round retires — the same zero-copy trade the per-envelope view
// decode made in PR 2, scaled by the batch and bounded by the coalescer's
// byte cap (transport.maxCoalesceBytes).
func (p *Peer) handleBatch(envs []wire.Envelope) {
	i := 0
	for i < len(envs) {
		e := &envs[i]
		if e.Tag.Block == wire.BlockControl {
			p.handle(*e)
			i++
			continue
		}
		sh := p.shardFor(e.Tag.Round)
		j := i + 1
		for j < len(envs) && envs[j].Tag.Block != wire.BlockControl && p.shardFor(envs[j].Tag.Round) == sh {
			j++
		}
		p.ingestRun(sh, envs[i:j])
		i = j
	}
}

// batchWake defers a waiter notification out of the shard lock.
type batchWake struct {
	ch      chan []byte
	payload []byte
}

// batchEquiv defers an equivocation reaction, or with a cause a Forbid
// trip, out of the shard lock.
type batchEquiv struct {
	tag   wire.Tag
	from  wire.NodeID
	cause *AbortError
}

// ingestRun is the one data path: it buffers a run of same-shard messages
// (a single one for handle) under one lock hold, and wakes their waiters
// and reacts to equivocations after the lock drops. The deferred reactions
// collect on the stack, so a run allocates nothing unless it wakes more
// than len(wakeBuf) waiters; 16 covers a superframe of the market
// workloads (13 envelopes per frame on average). A message that arrives
// alone pays for the shared path with a 0.5 KiB clear: ≈ 50 ns over a
// dedicated one-message path, on a 2-vCPU host (EXPERIMENTS.md, "One
// way to declare ⊥").
func (p *Peer) ingestRun(sh *shard, run []wire.Envelope) {
	if p.closed.Load() {
		return
	}
	var wakeBuf [16]batchWake
	var equivBuf [1]batchEquiv
	wakes, equivs := wakeBuf[:0], equivBuf[:0]
	sh.mu.Lock()
	// Re-check under the shard lock: Close and EndRound publish their state
	// before sweeping the shards, so a message that passes here is either
	// removed by the sweep (which serialises behind this lock) or belongs
	// to a live round.
	if p.closed.Load() {
		sh.mu.Unlock()
		return
	}
	min := p.minRound.Load()
	for k := range run {
		e := &run[k]
		if e.Tag.Round < min {
			continue
		}
		rs := sh.roundLocked(e.Tag.Round)
		key := keyOf(e.Tag, e.From)
		if prev, ok := rs.buffered[key]; ok {
			if !bytes.Equal(prev, e.Payload) {
				equivs = append(equivs, batchEquiv{tag: e.Tag, from: e.From})
			}
			continue
		}
		rs.buffered[key] = e.Payload
		if rs.forbids(key) && ContainsNode(p.providers, e.From) {
			equivs = append(equivs, batchEquiv{tag: e.Tag, from: e.From, cause: rs.forbidCause})
		}
		if ws := rs.waiters[key]; ws != nil {
			delete(rs.waiters, key)
			for n := ws; n != nil; n = n.next {
				// next is read under the lock; the receiver cannot recycle n
				// before the deferred wake below actually sends.
				wakes = append(wakes, batchWake{ch: n.ch, payload: e.Payload})
			}
		}
	}
	sh.mu.Unlock()
	for _, w := range wakes {
		w.ch <- w.payload // buffered channel of size 1; never blocks
	}
	for _, q := range equivs {
		// Same sender, same tag, different payload: equivocation, the
		// ⊥-inducing deviation of §3.2 — or a message Forbid ruled out.
		// Poison the round and tell everyone so nobody blocks — off the
		// delivering goroutine, since a handler must not send (see
		// transport.Handler).
		ae := &AbortError{Round: q.tag.Round, From: p.self, Code: AbortEquivocation, Culprit: q.from,
			Reason: fmt.Sprintf("equivocation by %d on %v", q.from, q.tag)}
		if q.cause != nil {
			ae = forbiddenAbort(p.self, q.tag, q.from, q.cause)
		}
		if _, fresh := p.latch(ae); fresh {
			go p.broadcastAbort(ae)
		}
	}
}

// latch makes ae its round's abort unless the round already has one, and
// returns the round's abort. fresh reports that ae is it — or that the
// round is retired and keeps no latch — so the caller broadcasts ae; a
// received abort needs no broadcast, its sender made one.
func (p *Peer) latch(ae *AbortError) (_ *AbortError, fresh bool) {
	sh := p.shardFor(ae.Round)
	sh.mu.Lock()
	if ae.Round < p.minRound.Load() {
		sh.mu.Unlock()
		return ae, true
	}
	rs := sh.roundLocked(ae.Round)
	if prev := rs.abortErr; prev != nil {
		sh.mu.Unlock()
		return prev, false
	}
	rs.abortErr = ae
	if rs.abortCh != nil {
		close(rs.abortCh)
	}
	// Snapshot the round contexts' cancels so they run outside the shard
	// lock; the registered slice keeps its capacity for the recycled round
	// state.
	var stack [4]context.CancelCauseFunc
	cancels := append(stack[:0], rs.cancels...)
	clear(rs.cancels)
	rs.cancels = rs.cancels[:0]
	sh.mu.Unlock()
	// The abort event carries the attribution the flight recorder dumps:
	// which peer, which code — recorded once, by the node that latched ⊥.
	trace.Emit(trace.PhaseAbort, ae.Round, p.lane, p.self, ae.Culprit, int32(ae.Code))
	for _, cancel := range cancels {
		cancel(ae)
	}
	return ae, true
}

// RoundContext returns the one context round runs under at this peer:
// every block of the round — bid collection, the coin's tosses, agreement,
// the allocator and its task graph — takes it, and none derives its own.
// The round's abort ends it, with the abort as its cause, from the
// goroutine that latched the abort; a round already aborted, retired or
// whose peer is closed gets a context that has ended already. The caller
// ends it when the round is over, and may end it before then with a cause
// of its own (a round timeout ends it with context.DeadlineExceeded). A
// site that types a failure by how the context ended reads
// context.Cause, so the same ending reads the same everywhere.
func (p *Peer) RoundContext(parent context.Context, round uint64) (context.Context, context.CancelCauseFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	sh := p.shardFor(round)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Nothing else holds the new context yet, so ending it here runs no
	// code under the lock.
	switch {
	case p.closed.Load():
		cancel(ErrPeerClosed)
	case round < p.minRound.Load():
		cancel(ErrRoundEnded)
	default:
		if rs := sh.roundLocked(round); rs.abortErr != nil {
			cancel(rs.abortErr)
		} else {
			rs.cancels = append(rs.cancels, cancel)
		}
	}
	return ctx, cancel
}

// Forbid rules out, for the rest of tag.Round, every provider message
// under tag's block, instance and step: one that is already buffered, or
// that arrives before the round ends, latches the round's abort with
// cause's code, culprit and reason and broadcasts it. The check runs where
// messages are ingested, so it fires the moment such a message lands, with
// no receive waiting for it. A round holds one registration; a second
// call replaces the first. Forbid returns the round's abort when the round
// already has one or a forbidden message is already buffered, and nil
// otherwise.
func (p *Peer) Forbid(tag wire.Tag, cause *AbortError) error {
	sh := p.shardFor(tag.Round)
	sh.mu.Lock()
	if p.closed.Load() {
		sh.mu.Unlock()
		return ErrPeerClosed
	}
	if tag.Round < p.minRound.Load() {
		sh.mu.Unlock()
		return ErrRoundEnded
	}
	rs := sh.roundLocked(tag.Round)
	if rs.abortErr != nil {
		err := rs.abortErr
		sh.mu.Unlock()
		return err
	}
	for _, id := range p.providers {
		if _, ok := rs.buffered[keyOf(tag, id)]; ok {
			sh.mu.Unlock()
			ae, fresh := p.latch(forbiddenAbort(p.self, tag, id, cause))
			if fresh {
				p.broadcastAbort(ae)
			}
			return ae
		}
	}
	rs.forbid, rs.forbidCause = keyOf(tag, 0), cause
	sh.mu.Unlock()
	return nil
}

// forbiddenAbort is the abort a message under a Forbid registration
// latches: the registration's verdict, naming the tag and the sender.
func forbiddenAbort(self wire.NodeID, tag wire.Tag, from wire.NodeID, cause *AbortError) *AbortError {
	return &AbortError{Round: tag.Round, From: self, Code: cause.Code, Culprit: cause.Culprit,
		Reason: fmt.Sprintf("%v from %d: %s", tag, from, cause.Reason)}
}

// broadcastAbort sends ae to every other provider. A send error is
// dropped: the round is ⊥ here either way, and a provider the abort cannot
// reach ends the round by its own timeout.
func (p *Peer) broadcastAbort(ae *AbortError) {
	payload := encodeAbort(ae)
	tag := wire.Tag{Round: ae.Round, Block: wire.BlockControl, Step: StepAbort}
	for _, id := range p.providers {
		if id != p.self {
			_ = p.conn.Send(wire.Envelope{From: p.self, To: id, Tag: tag, Payload: payload})
		}
	}
}

// Fail is the one way a peer declares ⊥ for round. It returns the round's
// abort: if the round already aborted, that abort stands and nothing is
// sent; otherwise a fresh abort latches and is broadcast once, so no
// provider is left blocking. The fresh abort's code and culprit come from
// cause's type alone (AbortCodeOf): an *AbortError keeps its own code,
// culprit and reason (a site's verdict on one provider's message); a
// *DisconnectError names the dead peer; anything else has no culprit. op
// prefixes the reason.
func (p *Peer) Fail(round uint64, op string, cause error) error {
	reason, culprit := cause.Error(), wire.Broadcast
	var verdict *AbortError
	var de *DisconnectError
	if errors.As(cause, &verdict) {
		reason, culprit = verdict.Reason, verdict.Culprit
	} else if errors.As(cause, &de) {
		culprit = de.Peer
	}
	ae := &AbortError{Round: round, From: p.self, Reason: op + ": " + reason, Code: AbortCodeOf(cause), Culprit: culprit}
	latched, fresh := p.latch(ae)
	if fresh {
		p.broadcastAbort(ae)
	}
	return latched
}

// timeoutError is the receive-timeout verdict for a silent peer: a plain
// deadline for a peer presumed alive, a DisconnectError when the failure
// detector has already declared it dead — the crash-vs-slow distinction
// AbortCodeOf types.
func (p *Peer) timeoutError(from wire.NodeID) error {
	if p.health != nil && from != p.self && p.health.PeerDead(from) {
		return &DisconnectError{Peer: from}
	}
	return context.DeadlineExceeded
}

// AbortErr returns the abort error for round, or nil.
func (p *Peer) AbortErr(round uint64) error {
	sh := p.shardFor(round)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rs, ok := sh.rounds[round]; ok && rs.abortErr != nil {
		return rs.abortErr
	}
	return nil
}

// StateSize reports the buffered protocol state: the number of buffered
// messages plus pending waiter keys, and the number of live round entries.
// Sessions reclaim state as rounds complete, so both stay bounded by the
// pipeline depth regardless of how many rounds have run.
func (p *Peer) StateSize() (msgs, rounds int) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		rounds += len(sh.rounds)
		for _, rs := range sh.rounds {
			msgs += len(rs.buffered) + len(rs.waiters)
		}
		sh.mu.Unlock()
	}
	return msgs, rounds
}

// EndRound discards all buffered state for rounds <= round. Later messages
// for those rounds are dropped. Rounds must be used in increasing order.
// Reclamation is O(the retired rounds' state): each round's messages and
// waiters live in that round's index, so ending a round never scans the
// still-live rounds' traffic.
func (p *Peer) EndRound(round uint64) {
	for {
		cur := p.minRound.Load()
		if round+1 <= cur || p.minRound.CompareAndSwap(cur, round+1) {
			break
		}
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for r, rs := range sh.rounds {
			if r <= round {
				sh.retireLocked(r, rs)
			}
		}
		sh.mu.Unlock()
	}
}

// Send transmits payload under tag to a single node. Sends to self are
// delivered locally without touching the transport.
func (p *Peer) Send(to wire.NodeID, tag wire.Tag, payload []byte) error {
	env := wire.Envelope{From: p.self, To: to, Tag: tag, Payload: payload}
	if to == p.self {
		p.handle(env)
		return nil
	}
	return p.conn.Send(env)
}

// BroadcastProviders sends payload under tag to every provider, including
// the local node (delivered locally).
func (p *Peer) BroadcastProviders(tag wire.Tag, payload []byte) error {
	var firstErr error
	for _, id := range p.providers {
		if err := p.Send(id, tag, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// BroadcastFirst is BroadcastProviders for a round's first message to the
// providers, which can be sent before every provider of the deployment has
// attached: peers open their sessions concurrently, and no transport routes
// to a node that has not attached yet. A send that fails is retried, to the
// providers it failed for only, with capped jittered backoff starting at
// 200 µs, until it succeeds or until, first, deadline passes or ctx ends;
// BroadcastFirst then returns the last send error. ctx is the round's
// context (RoundContext), so the round's abort ends the retries too. A zero
// deadline sends once. Receivers absorb identical re-sends.
func (p *Peer) BroadcastFirst(ctx context.Context, tag wire.Tag, payload []byte, deadline time.Time) error {
	var failed []wire.NodeID // nil until a send fails: the common path allocates nothing
	var err error
	for _, id := range p.providers {
		if e := p.Send(id, tag, payload); e != nil {
			failed, err = append(failed, id), e
		}
	}
	if failed == nil || !time.Now().Before(deadline) {
		return err
	}
	// A fleet of providers retrying into the same late attacher must not
	// hammer it in lockstep: the jitter seed differs per node and round.
	// The first wait is short, because round 1 pays it.
	bo := transport.NewBackoff(200*time.Microsecond, 100*time.Millisecond,
		int64(tag.Round)^int64(p.self)<<32^time.Now().UnixNano())
	defer bo.Stop()
	for len(failed) > 0 && time.Now().Before(deadline) && bo.Wait(ctx.Done()) {
		retry := failed
		failed = failed[:0]
		for _, id := range retry {
			if e := p.Send(id, tag, payload); e != nil {
				failed, err = append(failed, id), e
			}
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return err
}

// Receive blocks until a message with the given tag from the given sender
// arrives, the round aborts, the context expires, or the peer closes.
func (p *Peer) Receive(ctx context.Context, tag wire.Tag, from wire.NodeID) ([]byte, error) {
	return p.ReceiveTimeout(ctx, tag, from, nil)
}

// ReceiveTimeout is Receive with an additional give-up signal: when timeoutC
// fires (or is already closed) before a message arrives, the call returns
// context.DeadlineExceeded. A nil timeoutC never fires. Sessions use it with
// one reusable timer per scheduler instead of deriving a context (and its
// timer allocation) for every round; a buffered message is still returned
// even when timeoutC is ready.
func (p *Peer) ReceiveTimeout(ctx context.Context, tag wire.Tag, from wire.NodeID, timeoutC <-chan time.Time) ([]byte, error) {
	sh := p.shardFor(tag.Round)
	sh.mu.Lock()
	if p.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrPeerClosed
	}
	if tag.Round < p.minRound.Load() {
		sh.mu.Unlock()
		return nil, ErrRoundEnded
	}
	rs := sh.roundLocked(tag.Round)
	if rs.abortErr != nil {
		err := rs.abortErr
		sh.mu.Unlock()
		return nil, err
	}
	key := keyOf(tag, from)
	if payload, ok := rs.buffered[key]; ok {
		sh.mu.Unlock()
		return payload, nil
	}
	n, _ := p.waiterPool.Get().(*waiterNode)
	if n == nil {
		n = &waiterNode{ch: make(chan []byte, 1)}
	}
	n.next = rs.waiters[key]
	rs.waiters[key] = n
	if rs.abortCh == nil {
		rs.abortCh = make(chan struct{})
	}
	abortCh := rs.abortCh
	sh.mu.Unlock()

	select {
	case payload, ok := <-n.ch:
		if !ok {
			return nil, ErrPeerClosed
		}
		// The sender removed n from the index before sending, so nothing
		// else can send on or close its channel: recycle.
		n.next = nil
		p.waiterPool.Put(n)
		return payload, nil
	case <-abortCh:
		// Prefer a message that raced in over the abort? No: once the round
		// is ⊥ every block must output ⊥ (§3.2).
		return nil, p.AbortErr(tag.Round)
	case <-timeoutC:
		p.dropWaiter(tag.Round, key, n)
		return nil, p.timeoutError(from)
	case <-ctx.Done():
		p.dropWaiter(tag.Round, key, n)
		if err := context.Cause(ctx); !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, p.timeoutError(from)
	case <-p.done:
		return nil, ErrPeerClosed
	}
}

// dropWaiter unregisters a waiter that gave up. If the node is still linked
// it is recycled — unlinked under the shard lock, no sender can reach it
// and its channel never received. A node already claimed by a racing
// delivery is abandoned to the GC instead: the in-flight send may still
// land in its buffer.
func (p *Peer) dropWaiter(round uint64, key msgKey, n *waiterNode) {
	sh := p.shardFor(round)
	sh.mu.Lock()
	rs, ok := sh.rounds[round]
	if !ok {
		sh.mu.Unlock()
		return
	}
	removed := false
	if rs.waiters[key] == n {
		if n.next == nil {
			delete(rs.waiters, key)
		} else {
			rs.waiters[key] = n.next
		}
		removed = true
	} else {
		for prev := rs.waiters[key]; prev != nil; prev = prev.next {
			if prev.next == n {
				prev.next = n.next
				removed = true
				break
			}
		}
	}
	sh.mu.Unlock()
	if removed {
		n.next = nil
		p.waiterPool.Put(n)
	}
}

// GatherAppend receives the message with the given tag from every node in
// set and appends the payloads to buf in set's order, returning the extended
// slice (also on error, so the caller keeps its scratch). Hot paths with a
// pooled per-round scratch reuse its backing array across rounds; the
// appended payloads are views into the round's buffered messages and must be
// dropped (or copied) before the scratch is recycled.
func (p *Peer) GatherAppend(ctx context.Context, tag wire.Tag, set []wire.NodeID, buf [][]byte) ([][]byte, error) {
	for _, id := range set {
		payload, err := p.Receive(ctx, tag, id)
		if err != nil {
			return buf, err
		}
		buf = append(buf, payload)
	}
	return buf, nil
}

// Unanimous is the ending every §4 building block shares: gather one message
// from each node in set, then either all copies are equal or the round is ⊥.
// It gathers tag's message from set, in set's order, into buf (reusing its
// backing array) and returns the common payload together with the gathered
// slice for the caller to recycle. On failure it returns the round's abort:
//
//   - the existing one, if the round already aborted;
//   - for a gather error, one typed by Fail (a dead peer is a
//     disconnect with that peer as culprit);
//   - for differing payloads, AbortProtocol with no culprit: a mismatch
//     between views shows that someone lied, never who.
//
// The success path formats nothing, and allocates nothing once buf has room
// for set.
func (p *Peer) Unanimous(ctx context.Context, tag wire.Tag, set []wire.NodeID, buf [][]byte) ([]byte, [][]byte, error) {
	buf, err := p.GatherAppend(ctx, tag, set, buf[:0])
	var value []byte
	for i := 0; err == nil && i < len(buf); i++ {
		if i > 0 && !bytes.Equal(buf[i], value) {
			err = errDisagree
		}
		value = buf[i]
	}
	if err != nil {
		return nil, buf, p.Fail(tag.Round, tag.String(), err)
	}
	return value, buf, nil
}

// errDisagree is Unanimous's verdict on differing copies, as a typed cause
// for Fail: a protocol deviation by nobody in particular.
var errDisagree = &AbortError{Code: AbortProtocol, Culprit: wire.Broadcast, Reason: "senders disagree"}
