// Package deviation injects rational/Byzantine deviations at the transport
// layer for testing the framework's resilience claims.
//
// A deviation.Conn wraps a transport.Conn and applies rules to outbound
// envelopes, sent alone or inside a batch: drop them (silence), mutate
// their payloads (lying), or vary them per receiver (equivocation). Driving an honest core.Session over a
// deviant connection yields exactly the adversary of §3.2-§4: a provider
// that executed arbitrary protocol deviations while the rest stayed honest.
//
// The invariant every test asserts is the paper's safety core: deviations
// can force the outcome to ⊥ (everyone outputs ⊥, utility 0) but can never
// make honest providers accept a wrong outcome.
package deviation

import (
	"sync/atomic"

	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Action tells the wrapper what to do with a matched envelope.
type Action int

// Actions.
const (
	// Pass delivers the envelope unchanged (useful with Count).
	Pass Action = iota
	// Drop suppresses the envelope entirely.
	Drop
	// Mutate delivers a transformed envelope.
	Mutate
)

// Rule matches outbound envelopes and applies an action.
type Rule struct {
	// Match selects the envelopes the rule applies to.
	Match func(env wire.Envelope) bool
	// Action is what happens to matched envelopes.
	Action Action
	// Transform rewrites the envelope when Action == Mutate. It receives a
	// copy and returns the envelope to send (it may vary per receiver —
	// that is equivocation).
	Transform func(env wire.Envelope) wire.Envelope
}

// Conn wraps an inner connection with deviation rules. Rules apply in
// order; the first match wins.
type Conn struct {
	inner transport.Conn
	rules []Rule

	// Matched counts rule hits (all rules combined).
	Matched atomic.Int64
}

var _ transport.Conn = (*Conn)(nil)

// Wrap decorates conn with the given rules.
func Wrap(conn transport.Conn, rules ...Rule) *Conn {
	return &Conn{inner: conn, rules: rules}
}

// Self returns the wrapped connection's node ID.
func (c *Conn) Self() wire.NodeID { return c.inner.Self() }

// SetHandler passes through to the wrapped connection: a deviant node
// receives exactly as an honest one does.
func (c *Conn) SetHandler(h transport.Handler) { c.inner.SetHandler(h) }

// SetBatchHandler passes through to the wrapped connection.
func (c *Conn) SetBatchHandler(h transport.BatchHandler) { c.inner.SetBatchHandler(h) }

// Close passes through to the wrapped connection.
func (c *Conn) Close() error { return c.inner.Close() }

// apply runs the first matching rule over env and reports whether anything
// is left to send.
func (c *Conn) apply(env wire.Envelope) (wire.Envelope, bool) {
	for _, r := range c.rules {
		if r.Match == nil || !r.Match(env) {
			continue
		}
		c.Matched.Add(1)
		switch r.Action {
		case Drop:
			return env, false // the network "lost" nothing — the sender chose not to send
		case Mutate:
			if r.Transform != nil {
				env = r.Transform(env)
			}
		case Pass:
		}
		break
	}
	return env, true
}

// Send applies the first matching rule to env.
func (c *Conn) Send(env wire.Envelope) error {
	env, ok := c.apply(env)
	if !ok {
		return nil
	}
	return c.inner.Send(env)
}

// SendBatch applies the rules to each envelope of the batch — a dropped one
// leaves it, a mutated one is rewritten — so a deviant node behind a
// coalescer deviates exactly as it would sending one envelope at a time.
func (c *Conn) SendBatch(envs []wire.Envelope) error {
	out := make([]wire.Envelope, 0, len(envs))
	for _, env := range envs {
		if env, ok := c.apply(env); ok {
			out = append(out, env)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return c.inner.SendBatch(out)
}

// MatchBlock matches all envelopes of one building block.
func MatchBlock(block wire.BlockID) func(wire.Envelope) bool {
	return func(env wire.Envelope) bool { return env.Tag.Block == block }
}

// MatchBlockStep matches envelopes of one block step.
func MatchBlockStep(block wire.BlockID, step uint8) func(wire.Envelope) bool {
	return func(env wire.Envelope) bool { return env.Tag.Block == block && env.Tag.Step == step }
}

// MatchReceiver matches envelopes addressed to one node.
func MatchReceiver(to wire.NodeID) func(wire.Envelope) bool {
	return func(env wire.Envelope) bool { return env.To == to }
}

// And combines matchers conjunctively.
func And(ms ...func(wire.Envelope) bool) func(wire.Envelope) bool {
	return func(env wire.Envelope) bool {
		for _, m := range ms {
			if !m(env) {
				return false
			}
		}
		return true
	}
}

// FlipPayloadByte returns a transform that corrupts the first payload byte
// (appending one to empty payloads), keeping the envelope otherwise intact.
func FlipPayloadByte() func(wire.Envelope) wire.Envelope {
	return func(env wire.Envelope) wire.Envelope {
		p := append([]byte(nil), env.Payload...)
		if len(p) == 0 {
			p = []byte{0xFF}
		} else {
			p[0] ^= 0xFF
		}
		env.Payload = p
		return env
	}
}

// EquivocateTo returns a transform that corrupts the payload only for the
// given receivers — the canonical equivocation deviation.
func EquivocateTo(victims ...wire.NodeID) func(wire.Envelope) wire.Envelope {
	set := make(map[wire.NodeID]bool, len(victims))
	for _, v := range victims {
		set[v] = true
	}
	flip := FlipPayloadByte()
	return func(env wire.Envelope) wire.Envelope {
		if set[env.To] {
			return flip(env)
		}
		return env
	}
}
