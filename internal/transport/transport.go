// Package transport moves protocol envelopes between nodes.
//
// Two implementations are provided:
//
//   - Hub/MemConn: an in-process network with a configurable latency model
//     (base + per-byte + jitter). This is the reproduction substitute for the
//     paper's Guifi.net testbed: protocol running time is compute plus
//     rounds×latency plus bytes/bandwidth, and the model exercises exactly
//     those terms. Delivery order between different senders is not
//     guaranteed, which matches the asynchronous model of §3.3. A Hub can
//     also inject faults (SetFaults, SetPartition, Kill): drops,
//     duplicates, extra delay, partitions and blackouts, for the link
//     layer to mask. Every delayed hop, whatever delayed it, waits in its
//     destination's delivery shard — a min-heap and one goroutine that runs
//     the handlers, one shard per core — which never waits on a
//     destination: no mailbox holds its producer (Mailbox.Deliver).
//
//   - TCPNode: a real TCP transport (length-prefixed frames, HMAC
//     authenticated) for deployments and loopback/LAN experiments.
//
// Both hand out the one Conn shape, and so does every layer stacked on them
// (Resilient, the market mux's lanes, deviation.Wrap): each layer takes a
// Conn and returns a Conn. Messages are never lost (reliable channels
// assumption) unless a Hub is told to lose them, which Resilient repairs;
// they may be arbitrarily delayed and reordered.
package transport

import (
	"errors"
	"sync/atomic"

	"distauction/internal/wire"
)

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("transport: closed")

// BatchConn is the send half of a Conn, and all a Coalescer needs of the
// connection beneath it.
type BatchConn interface {
	// Self returns the local node ID.
	Self() wire.NodeID
	// Send transmits env to env.To. It returns once the message is durably
	// queued; delivery is asynchronous.
	Send(env wire.Envelope) error
	// SendBatch ships envelopes for ONE destination peer as a single
	// superframe: one wire frame, one MAC, one latency-model event. Every
	// envelope must carry the same To (and the local From); batching is
	// transport-level only — each envelope inside the superframe is
	// byte-for-byte what it would be alone. The callee may read the slice,
	// and a link layer may stamp its own header fields (LinkSeq, LinkAck)
	// into it, during the call, but nothing retains it after return (a
	// latency-modelling transport copies before deferring delivery) — the
	// caller recycles the slice across batches. Payload bytes are not copied
	// and must stay immutable once sent. Use a Coalescer to gather concurrent
	// sends into batches; SendBatch itself ships immediately.
	SendBatch(envs []wire.Envelope) error
	// Close releases the connection. A delivery that begins after Close
	// returns reaches no handler; Close does not wait for handler calls
	// already running on other goroutines.
	Close() error
}

// Conn is one node's attachment to the network, and the one shape every
// transport layer takes and returns. Receiving is push-only: inbound
// traffic is handed to the installed handlers on whatever goroutine
// produced it. Envelopes that arrive before SetHandler are queued (a market
// lane bounds its queue) and drained into the handler by SetHandler itself,
// each exactly once even when SetHandler races the producers.
type Conn interface {
	BatchConn
	// SetHandler installs the consumer of single inbound envelopes.
	SetHandler(h Handler)
	// SetBatchHandler installs the consumer of whole inbound superframes.
	// Without one a superframe is delivered envelope by envelope to the
	// Handler; a receiver that installs a batch handler installs a Handler
	// too, for the envelopes that travel outside any superframe.
	SetBatchHandler(h BatchHandler)
}

// PushBatchConn is the old name of Conn. Its last user is bench/probes.go,
// which a simplicity PR may not edit; delete the alias with the benchmark
// PR that renames it there.
type PushBatchConn = Conn

// Handler consumes one inbound envelope. Handlers must be safe for
// concurrent calls: transports invoke them from whatever goroutine produced
// the message (a sender, a delivery loop of the Hub, a per-connection read
// loop), which is exactly what lets receivers on different rounds proceed
// in parallel instead of funnelling through one receive loop per conn. A
// handler must not wait for another delivery on its own Hub: on a Hub with
// a latency model it runs on its destination's delivery shard, which hands
// out that shard's hops one after another. Nor may
// it make a sequenced send over Resilient, which waits for acks when the
// peer's window is full: over TCP those arrive on the read loop it blocks.
type Handler func(env wire.Envelope)

// BatchHandler consumes one inbound superframe's envelopes in a single
// call — one dispatch hop per batch, with any fan-out done inside by the
// receiver. Like Handler it runs on the producing goroutine and must be
// safe for concurrent calls. The handler may mutate the slice during the
// call but must not retain it past return (on a zero-latency transport it
// is the sender's recycled batch); payload bytes stay valid and may be
// retained as views.
type BatchHandler func(envs []wire.Envelope)

// Stats counts traffic through a connection or hub.
type Stats struct {
	MsgsSent      atomic.Int64
	BytesSent     atomic.Int64
	MsgsReceived  atomic.Int64
	BytesReceived atomic.Int64
}

// Snapshot returns a plain copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		MsgsSent:      s.MsgsSent.Load(),
		BytesSent:     s.BytesSent.Load(),
		MsgsReceived:  s.MsgsReceived.Load(),
		BytesReceived: s.BytesReceived.Load(),
	}
}

// StatsSnapshot is an immutable view of Stats.
type StatsSnapshot struct {
	MsgsSent      int64
	BytesSent     int64
	MsgsReceived  int64
	BytesReceived int64
}

// Add returns the component-wise sum of two snapshots.
func (a StatsSnapshot) Add(b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		MsgsSent:      a.MsgsSent + b.MsgsSent,
		BytesSent:     a.BytesSent + b.BytesSent,
		MsgsReceived:  a.MsgsReceived + b.MsgsReceived,
		BytesReceived: a.BytesReceived + b.BytesReceived,
	}
}
