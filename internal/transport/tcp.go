package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/auth"
	"distauction/internal/wire"
)

// outBufSize is the per-connection write buffer. One consensus burst is m
// small frames; 64 KiB batches all of them into one syscall.
const outBufSize = 64 << 10

// inBufSize is the per-connection read buffer: one read(2) picks up every
// frame the peer's last flush carried instead of two per frame (header,
// then body). Bodies larger than the buffer are read straight into place.
const inBufSize = 16 << 10

// TCPConfig configures a TCP transport node.
type TCPConfig struct {
	// Self is the local node ID.
	Self wire.NodeID
	// ListenAddr is the local listen address ("host:port"; port 0 picks one).
	ListenAddr string
	// Peers maps node IDs to dialable addresses. Only peers this node sends
	// to need entries.
	Peers map[wire.NodeID]string
	// Registry authenticates traffic. If nil, messages are unauthenticated
	// (tests only; production deployments must set it).
	Registry *auth.Registry
	// DialTimeout bounds outbound connection establishment. Zero means 5s.
	DialTimeout time.Duration
}

// TCPNode is a node on a TCP network. Identity is established per message:
// each envelope carries an HMAC under the pairwise key of (From, To), so no
// connection handshake is needed and connections are interchangeable.
type TCPNode struct {
	cfg TCPConfig
	ln  net.Listener
	box Mailbox

	mu       sync.Mutex
	outbound map[wire.NodeID]*tcpOut
	inConns  map[net.Conn]struct{} // live inbound conns, for KillConns

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	stats Stats
	// Dropped counts inbound messages discarded for failing decode or
	// authentication. A nonzero value under honest operation indicates
	// misconfiguration; under attack it is expected and harmless.
	Dropped atomic.Int64
}

// tcpOut is one outbound connection with write coalescing: frames go into a
// bufio.Writer, and the writer that finds no successor queued flushes for
// the whole burst while the others wait for that flush's outcome. A burst of
// m² consensus messages thus costs a handful of syscalls instead of m², an
// isolated send still flushes immediately, and every Send synchronously
// returns the result of the flush that covered its frame — so the
// retry-once redial logic keeps working for coalesced frames.
type tcpOut struct {
	queued atomic.Int64 // senders that will take mu next
	mu     sync.Mutex
	cond   sync.Cond // signalled after each flush; guarded by mu
	conn   net.Conn
	bw     *bufio.Writer
	gen    uint64 // flush generation
	err    error  // outcome of the flush that ended generation gen
}

func newTCPOut(conn net.Conn) *tcpOut {
	o := &tcpOut{conn: conn, bw: bufio.NewWriterSize(conn, outBufSize)}
	o.cond.L = &o.mu
	return o
}

// writeFrame buffers one frame. The last writer of a burst flushes and
// publishes the outcome; the others block until that flush and return its
// error, so a lost frame is always observed by its sender.
func (o *tcpOut) writeFrame(raw []byte) error {
	o.queued.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	idle := o.queued.Add(-1) == 0
	err := wire.WriteFrameTo(o.bw, raw)
	if idle {
		// The burst's final writer always publishes — even on a write error
		// — so no earlier writer is left waiting on a flush that cannot
		// happen (bufio errors are sticky; the whole burst shares the fate).
		if err == nil {
			err = o.bw.Flush()
		}
		o.gen++
		o.err = err
		o.cond.Broadcast()
		return err
	}
	if err != nil {
		return err // a committed successor will publish for the waiters
	}
	// A successor is committed to taking the lock; the burst's final writer
	// will flush this frame too. Wait for that flush and report its outcome.
	gen := o.gen
	for o.gen == gen {
		o.cond.Wait()
	}
	return o.err
}

var _ Conn = (*TCPNode)(nil)

// ListenTCP starts a TCP node: it binds cfg.ListenAddr and serves inbound
// connections until Close.
func ListenTCP(cfg TCPConfig) (*TCPNode, error) {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
	}
	peers := make(map[wire.NodeID]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		peers[id] = addr
	}
	cfg.Peers = peers
	n := &TCPNode{
		cfg:      cfg,
		ln:       ln,
		outbound: make(map[wire.NodeID]*tcpOut),
		inConns:  make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	n.box.Init(connQueueCap, 0)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address (useful with port 0).
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// Self returns the local node ID.
func (n *TCPNode) Self() wire.NodeID { return n.cfg.Self }

// Stats returns traffic counters.
func (n *TCPNode) Stats() StatsSnapshot { return n.stats.Snapshot() }

// SetPeer registers or updates a peer address.
func (n *TCPNode) SetPeer(id wire.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Peers[id] = addr
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			// Transient accept errors: back off briefly and continue.
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	n.mu.Lock()
	n.inConns[conn] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inConns, conn)
		n.mu.Unlock()
	}()
	go func() {
		<-n.done
		conn.Close() // unblock the pending read on shutdown
	}()
	br := bufio.NewReaderSize(conn, inBufSize)
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		if wire.IsSuperframe(frame) {
			n.ingestSuperframe(frame)
			continue
		}
		// The frame buffer is owned by this loop and never reused, so the
		// envelope's payload can alias it instead of being copied out.
		env, err := wire.DecodeEnvelopeView(frame)
		if err != nil {
			n.Dropped.Add(1)
			continue
		}
		if n.cfg.Registry != nil {
			if err := n.cfg.Registry.Verify(&env); err != nil {
				n.Dropped.Add(1)
				continue
			}
		} else if env.To != n.cfg.Self {
			n.Dropped.Add(1)
			continue
		}
		n.stats.MsgsReceived.Add(1)
		n.stats.BytesReceived.Add(int64(len(env.Payload)))
		// Handlers run here, in the connection's read goroutine, so inbound
		// traffic from different peers is handled in parallel.
		n.box.Deliver(env)
	}
}

// ingestSuperframe decodes, authenticates (ONE batch MAC check) and
// dispatches one inbound superframe. The whole batch is handed to the batch
// handler in this connection's read goroutine — one dispatch hop per
// superframe. A bad batch MAC drops the frame and counts once in Dropped;
// auth.VerifyBatch already attributed it as finely as the frame allows.
func (n *TCPNode) ingestSuperframe(frame []byte) {
	sf, err := wire.DecodeSuperframeView(frame)
	if err != nil {
		n.Dropped.Add(1)
		return
	}
	if n.cfg.Registry != nil {
		if err := n.cfg.Registry.VerifyBatchView(&sf, frame); err != nil {
			n.Dropped.Add(1)
			return
		}
	} else if sf.To != n.cfg.Self {
		n.Dropped.Add(1)
		return
	}
	size := 0
	for i := range sf.Envs {
		size += len(sf.Envs[i].Payload)
	}
	n.stats.MsgsReceived.Add(int64(len(sf.Envs)))
	n.stats.BytesReceived.Add(int64(size))
	n.box.DeliverBatch(sf.Envs)
}

// SetHandler implements Conn: envelopes are dispatched in the
// per-connection read goroutines.
func (n *TCPNode) SetHandler(h Handler) { n.box.SetHandler(h) }

// SetBatchHandler implements Conn.
func (n *TCPNode) SetBatchHandler(h BatchHandler) { n.box.SetBatchHandler(h) }

// Send signs (when configured) and transmits env to its destination,
// dialing or reusing a connection. A stale connection is retried once.
func (n *TCPNode) Send(env wire.Envelope) error {
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	if env.From != n.cfg.Self {
		return fmt.Errorf("transport: sending as %d from node %d", env.From, n.cfg.Self)
	}
	if n.cfg.Registry != nil {
		if err := n.cfg.Registry.Sign(&env); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
	}
	// The frame bytes are fully consumed by writeFrame (copied into the
	// connection's write buffer or the kernel), so the encoder is pooled.
	enc := wire.GetEncoder(env.EncodedSize())
	env.EncodeTo(enc)
	err := n.writeRetry(env.To, enc.Buffer())
	wire.PutEncoder(enc)
	if err == nil {
		n.stats.MsgsSent.Add(1)
		n.stats.BytesSent.Add(int64(len(env.Payload)))
	}
	return err
}

// SendBatch signs (ONE batch MAC, when configured) and transmits a whole
// superframe to its destination as a single wire frame. Every envelope must
// share the batch's destination; singletons fall back to Send and its
// per-envelope MAC, so a lone message never pays the superframe framing.
func (n *TCPNode) SendBatch(envs []wire.Envelope) error {
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	if len(envs) == 0 {
		return nil
	}
	if len(envs) == 1 {
		return n.Send(envs[0])
	}
	size := 0
	for i := range envs {
		if envs[i].From != n.cfg.Self {
			return fmt.Errorf("transport: sending as %d from node %d", envs[i].From, n.cfg.Self)
		}
		if envs[i].To != envs[0].To {
			return fmt.Errorf("transport: superframe mixes destinations %d and %d", envs[0].To, envs[i].To)
		}
		size += len(envs[i].Payload)
	}
	// One encode serves both framing and authentication: the batch MAC is
	// computed directly over the encoded signed bytes and appended, instead
	// of encoding once to sign and again to frame. The size hint includes
	// the MAC that is about to be installed, so appending it never regrows
	// (and memmoves) the encoded frame.
	sf := wire.Superframe{From: n.cfg.Self, To: envs[0].To, Envs: envs}
	enc := wire.GetEncoder(sf.EncodedSize() + 1 + auth.KeySize)
	sf.SignedBytesTo(enc)
	if n.cfg.Registry != nil {
		var sum [auth.KeySize]byte
		if err := n.cfg.Registry.SignBatchBytes(sf.To, enc.Buffer(), &sum); err != nil {
			wire.PutEncoder(enc)
			return fmt.Errorf("transport: %w", err)
		}
		sf.MAC = sum[:]
	}
	enc.Bytes(sf.MAC)
	err := n.writeRetry(sf.To, enc.Buffer())
	wire.PutEncoder(enc)
	if err == nil {
		n.stats.MsgsSent.Add(int64(len(envs)))
		n.stats.BytesSent.Add(int64(size))
	}
	return err
}

// writeAttempts bounds writeRetry: one write on the cached conn plus up to
// three redial-and-replay attempts with jittered backoff between them.
const writeAttempts = 4

// writeRetry writes one raw frame to the peer's connection. A stale or
// freshly-killed connection is redialed and the write replayed, with
// capped jittered backoff between attempts; shutdown aborts the retry
// immediately.
func (n *TCPNode) writeRetry(to wire.NodeID, raw []byte) error {
	var lastErr error
	var bo *Backoff // lazily created: the no-failure path allocates nothing
	for attempt := 0; attempt < writeAttempts; attempt++ {
		if attempt > 0 {
			if bo == nil {
				bo = NewBackoff(2*time.Millisecond, 100*time.Millisecond,
					int64(n.cfg.Self)<<32^int64(to)^time.Now().UnixNano())
			}
			if !bo.Wait(n.done) {
				return ErrClosed
			}
		}
		out, err := n.conn(to, attempt > 0)
		if err != nil {
			return err
		}
		if err = out.writeFrame(raw); err == nil {
			if bo != nil {
				bo.Stop()
			}
			return nil
		}
		lastErr = err
		n.dropConn(to, out)
	}
	bo.Stop()
	return fmt.Errorf("transport: send to %d: %w", to, lastErr)
}

// conn returns the outbound connection for id, dialing if absent or if
// redial is set.
func (n *TCPNode) conn(id wire.NodeID, redial bool) (*tcpOut, error) {
	n.mu.Lock()
	if out, ok := n.outbound[id]; ok && !redial {
		n.mu.Unlock()
		return out, nil
	}
	addr, ok := n.cfg.Peers[id]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no address for peer %d", id)
	}
	// Retry refused connections within the dial budget: peers of a round
	// start concurrently and a listener may be a beat behind its dialers.
	// Capped jittered exponential backoff (one reusable timer, honoring
	// shutdown) keeps a whole fleet redialing one restarted peer from
	// hammering it in lockstep.
	deadline := time.Now().Add(n.cfg.DialTimeout)
	var c net.Conn
	var err error
	var bo *Backoff // lazily created: the first-try-succeeds path allocates nothing
	for {
		c, err = net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			if bo != nil {
				bo.Stop()
			}
			return nil, fmt.Errorf("transport: dial %d (%s): %w", id, addr, err)
		}
		if bo == nil {
			bo = NewBackoff(5*time.Millisecond, 200*time.Millisecond,
				int64(n.cfg.Self)<<32^int64(id)^time.Now().UnixNano())
		}
		if !bo.Wait(n.done) {
			return nil, ErrClosed
		}
	}
	if bo != nil {
		bo.Stop()
	}
	out := newTCPOut(c)
	n.mu.Lock()
	if old, ok := n.outbound[id]; ok && !redial {
		// Lost the race; keep the existing connection.
		n.mu.Unlock()
		c.Close()
		return old, nil
	}
	n.outbound[id] = out
	n.mu.Unlock()
	return out, nil
}

// KillConns abruptly closes every live connection — outbound and inbound —
// without touching the listener or the node's state. It models a network
// event (NAT rebind, cable pull, peer restart) for fault injection: the
// next send redials, in-flight frames are lost, and the resilience layer's
// seq/resend protocol must replay whatever the dead conns swallowed.
func (n *TCPNode) KillConns() {
	n.mu.Lock()
	outs := make([]*tcpOut, 0, len(n.outbound))
	for id, out := range n.outbound {
		outs = append(outs, out)
		delete(n.outbound, id)
	}
	ins := make([]net.Conn, 0, len(n.inConns))
	for conn := range n.inConns {
		ins = append(ins, conn)
	}
	n.mu.Unlock()
	for _, out := range outs {
		out.conn.Close()
	}
	for _, conn := range ins {
		conn.Close()
	}
}

func (n *TCPNode) dropConn(id wire.NodeID, out *tcpOut) {
	n.mu.Lock()
	if n.outbound[id] == out {
		delete(n.outbound, id)
	}
	n.mu.Unlock()
	out.conn.Close()
}

// Close shuts the node down and waits for its goroutines.
func (n *TCPNode) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.done)
		n.box.Close() // no delivery that begins from here reaches a handler
		err = n.ln.Close()
		n.mu.Lock()
		for id, out := range n.outbound {
			out.conn.Close()
			delete(n.outbound, id)
		}
		n.mu.Unlock()
		n.wg.Wait()
	})
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
