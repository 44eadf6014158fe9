package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distauction/internal/auth"
	"distauction/internal/wire"
)

// Network is a transport that participants attach to. It abstracts over the
// in-memory Hub and real TCP so that deployments — sessions, the harness,
// the CLIs — are transport-agnostic end to end: code that takes a Network
// runs unchanged on either.
type Network interface {
	// Attach registers a node and returns its connection. Attaching an
	// already attached ID is a configuration error.
	Attach(id wire.NodeID) (Conn, error)
	// Stats returns network-wide traffic counters.
	Stats() StatsSnapshot
	// Close shuts the network and every attached connection.
	Close() error
}

var _ Network = (*Hub)(nil)

// TCPNetworkConfig configures a TCP-backed Network.
type TCPNetworkConfig struct {
	// Addrs maps node IDs to listen/dial addresses. A node missing from the
	// map listens on a loopback ephemeral port; its bound address is learned
	// at Attach time and propagated to every other attached node, which
	// makes single-process loopback deployments zero-config.
	Addrs map[wire.NodeID]string
	// Members is the full participant set, needed to derive pairwise HMAC
	// keys when Secret is set. Empty means the keys of Addrs; with a Secret,
	// one of the two must name the participants or Attach fails.
	Members []wire.NodeID
	// Secret is the shared master secret for HMAC keys. Empty disables
	// authentication (tests only).
	Secret []byte
	// DialTimeout bounds outbound connection establishment. Zero means 5s.
	DialTimeout time.Duration
}

// TCPNetwork is the Network implementation over real TCP. Each attached
// node runs its own TCPNode (listener plus dialed connections); the network
// object is only the shared address book and aggregate stats, so it also
// models multi-process deployments where each process attaches one node.
type TCPNetwork struct {
	cfg TCPNetworkConfig

	mu     sync.Mutex
	addrs  map[wire.NodeID]string
	nodes  map[wire.NodeID]*TCPNode
	closed bool
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a TCP-backed network from the given address book.
func NewTCPNetwork(cfg TCPNetworkConfig) *TCPNetwork {
	addrs := make(map[wire.NodeID]string, len(cfg.Addrs))
	for id, addr := range cfg.Addrs {
		addrs[id] = addr
	}
	return &TCPNetwork{
		cfg:   cfg,
		addrs: addrs,
		nodes: make(map[wire.NodeID]*TCPNode),
	}
}

// members returns the authenticated participant set for key derivation.
func (n *TCPNetwork) members() []wire.NodeID {
	if len(n.cfg.Members) > 0 {
		return n.cfg.Members
	}
	ids := make([]wire.NodeID, 0, len(n.addrs))
	for id := range n.addrs {
		ids = append(ids, id)
	}
	return ids
}

// Attach implements Network: it starts a TCPNode for id, listening on the
// configured address (or an ephemeral loopback port) and dialing peers from
// the shared address book.
func (n *TCPNetwork) Attach(id wire.NodeID) (Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := n.nodes[id]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: node %d already attached", id)
	}
	if len(n.cfg.Secret) > 0 && len(n.cfg.Members) == 0 && len(n.cfg.Addrs) == 0 {
		// With no participant set the first node would derive no peer keys:
		// every MAC fails and rounds hang instead of failing.
		n.mu.Unlock()
		return nil, errors.New("transport: TCPNetworkConfig.Secret needs Members or Addrs to name the participants")
	}
	listen, ok := n.addrs[id]
	if !ok {
		listen = "127.0.0.1:0"
	}
	peers := make(map[wire.NodeID]string, len(n.addrs))
	for pid, addr := range n.addrs {
		peers[pid] = addr
	}
	var reg *auth.Registry
	if len(n.cfg.Secret) > 0 {
		reg = auth.NewRegistryFromMaster(n.cfg.Secret, id, n.members())
	}
	n.mu.Unlock()

	node, err := ListenTCP(TCPConfig{
		Self:        id,
		ListenAddr:  listen,
		Peers:       peers,
		Registry:    reg,
		DialTimeout: n.cfg.DialTimeout,
	})
	if err != nil {
		return nil, err
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		node.Close()
		return nil, ErrClosed
	}
	if _, dup := n.nodes[id]; dup {
		n.mu.Unlock()
		node.Close()
		return nil, fmt.Errorf("transport: node %d already attached", id)
	}
	// Record the bound address (resolves port 0) and teach it to everyone
	// already attached, so lazily dialed connections find the newcomer —
	// and replay the current book into the newcomer, whose initial peer
	// snapshot predates any address resolved by a concurrent Attach.
	n.addrs[id] = node.Addr()
	for pid, addr := range n.addrs {
		if pid != id {
			node.SetPeer(pid, addr)
		}
	}
	for _, other := range n.nodes {
		other.SetPeer(id, node.Addr())
	}
	n.nodes[id] = node
	n.mu.Unlock()
	return node, nil
}

// Stats implements Network with the sum of all attached nodes' counters.
func (n *TCPNetwork) Stats() StatsSnapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total StatsSnapshot
	for _, node := range n.nodes {
		total = total.Add(node.Stats())
	}
	return total
}

// Close implements Network: it shuts every attached node down.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	nodes := make([]*TCPNode, 0, len(n.nodes))
	for _, node := range n.nodes {
		nodes = append(nodes, node)
	}
	n.mu.Unlock()
	var firstErr error
	for _, node := range nodes {
		if err := node.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
