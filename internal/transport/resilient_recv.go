package transport

import (
	"encoding/binary"
	"sort"
	"time"

	"distauction/internal/wire"
)

// seqRange is an inclusive range of sequence numbers delivered above the
// contiguous prefix.
type seqRange struct{ lo, hi uint64 }

// unlockAck releases p.mu and ships the eager ack, if one is warranted: a
// quarter window of frames arrived since the last ack (so a sender with the
// same window never waits on a heartbeat for room), or one just opened or
// filled a hole.
func (c *ResilientConn) unlockAck(p *linkPeer) {
	if !p.ackNow && p.recvSinceAck < max(c.cfg.MaxUnacked/4, 1) {
		p.mu.Unlock()
		return
	}
	p.ackNow = false
	contig, gapLo := p.shipAckLocked(), p.gapLo()
	p.mu.Unlock()
	c.sendControl(p.id, linkAck, contig, gapLo)
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

// onInner processes one inbound envelope from the wrapped transport: the
// shared ingest on a one-element batch, the fresh envelope handed up
// single.
func (c *ResilientConn) onInner(env wire.Envelope) {
	one := [1]wire.Envelope{env}
	if out := c.ingest(one[:]); len(out) > 0 {
		c.box.Deliver(out[0])
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
			c.unlockAck(p)
			c.box.DeliverBatch(envs)
			return
		}
		p.mu.Unlock() // replayed frames inside; the slow path dedups each
	}
	if out := c.ingest(envs); len(out) > 0 {
		c.box.DeliverBatch(out)
	}
}

// ingest runs the receive side envelope by envelope: control frames are
// processed, data frames deduplicated by seq, and what is fresh — with
// unsequenced envelopes, which pass through — is compacted to the front of
// envs, whose prefix is returned for the caller to hand up.
func (c *ResilientConn) ingest(envs []wire.Envelope) []wire.Envelope {
	out := envs[:0]
	now := time.Now()
	var p *linkPeer
	// unlock ends one peer's run of frames.
	unlock := func() {
		if p != nil {
			c.unlockAck(p)
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
	return out
}
