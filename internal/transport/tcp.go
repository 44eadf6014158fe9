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

// inBufSize is the per-connection read buffer: one read(2) picks up every
// frame that has arrived instead of two per frame (header, then body).
// Bodies larger than the buffer are read straight into place.
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

// TCPNode is a node on a TCP network. Every frame it sends is a superframe
// (wire.Superframe), a lone envelope included, and identity is established
// per frame: one HMAC under the pairwise key of (From, To) covers every byte
// of the frame but the MAC, and the receiver checks it before it delivers
// any envelope inside. No connection handshake is needed, and connections
// are interchangeable.
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
	// Dropped counts inbound frames discarded for failing decode (a frame
	// that is not a superframe included) or authentication. A nonzero
	// value under honest operation indicates misconfiguration; under
	// attack it is expected and harmless.
	Dropped atomic.Int64
}

// tcpOut is one outbound connection. A frame is one contiguous buffer,
// written with one Write under mu, so frames from concurrent senders never
// interleave and each sender gets its own write's outcome.
type tcpOut struct {
	mu   sync.Mutex
	conn net.Conn
}

func (o *tcpOut) writeFrame(frame []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, err := o.conn.Write(frame)
	return err
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

// readLoop serves one inbound connection until it fails or is closed:
// by the peer, by KillConns or by Close. It registers conn under n.mu, where
// Close finds it, and refuses a conn accepted after Close began.
func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	n.mu.Lock()
	select {
	case <-n.done:
		n.mu.Unlock()
		return
	default:
	}
	n.inConns[conn] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inConns, conn)
		n.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, inBufSize)
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		n.ingest(frame)
	}
}

// ingest decodes, authenticates (one batch MAC check) and dispatches one
// inbound frame. The frame buffer is owned by the read loop and never
// reused, so the envelopes' payloads alias it instead of being copied out.
// The whole batch goes to the mailbox in this connection's read goroutine,
// so inbound traffic from different peers is handled in parallel. A frame
// that is not a well-formed superframe, or whose MAC fails, is dropped and
// counted once in Dropped.
func (n *TCPNode) ingest(frame []byte) {
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

// Send transmits env to its destination as a superframe of one.
func (n *TCPNode) Send(env wire.Envelope) error {
	one := [1]wire.Envelope{env}
	return n.SendBatch(one[:])
}

// SendBatch signs (one batch MAC, when configured) and transmits envs to
// their destination as one superframe in one wire frame, dialing or reusing
// a connection. Every envelope must share the batch's destination. A stale
// connection is redialed (writeRetry).
func (n *TCPNode) SendBatch(envs []wire.Envelope) error {
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	if len(envs) == 0 {
		return nil
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
	// One encode serves framing and authentication: the buffer starts with
	// the frame's length prefix, the batch MAC is computed over the signed
	// bytes behind it and appended, and the prefix is filled last. The size
	// hint covers the MAC, so appending it never regrows the buffer. The
	// frame is fully consumed by the write, so the encoder is pooled.
	sf := wire.Superframe{From: n.cfg.Self, To: envs[0].To, Envs: envs}
	enc := wire.GetEncoder(wire.FramePrefixLen + sf.EncodedSize() + 1 + auth.KeySize)
	enc.Uint32(0) // the length prefix, filled by wire.SealFrame
	sf.SignedBytesTo(enc)
	if n.cfg.Registry != nil {
		var sum [auth.KeySize]byte
		if err := n.cfg.Registry.SignBatchBytes(sf.To, enc.Buffer()[wire.FramePrefixLen:], &sum); err != nil {
			wire.PutEncoder(enc)
			return fmt.Errorf("transport: %w", err)
		}
		sf.MAC = sum[:]
	}
	enc.Bytes(sf.MAC)
	err := wire.SealFrame(enc.Buffer())
	if err == nil {
		err = n.writeRetry(sf.To, enc.Buffer())
	}
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

// writeRetry writes one sealed frame to the peer's connection. A stale or
// freshly-killed connection is redialed and the write replayed, with
// capped jittered backoff between attempts; shutdown aborts the retry
// immediately.
func (n *TCPNode) writeRetry(to wire.NodeID, frame []byte) error {
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
		if err = out.writeFrame(frame); err == nil {
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
	out := &tcpOut{conn: c}
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

// Close shuts the node down and waits for its goroutines: closing every
// live connection ends its read loop.
func (n *TCPNode) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.done)
		n.box.Close() // no delivery that begins from here reaches a handler
		err = n.ln.Close()
		n.KillConns()
		n.wg.Wait()
	})
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
