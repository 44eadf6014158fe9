package transport

import (
	"time"

	"distauction/internal/wire"
)

// linkFrame is one unacked outbound frame awaiting its cumulative ack.
type linkFrame struct {
	env    wire.Envelope // the wrapped link envelope, ready to resend
	sentAt time.Time     // last transmission
	resent bool          // transmitted more than once: no RTT sample (Karn)
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

// Send implements Conn: the envelope is sequenced and buffered for resend
// (sequence) and ships as a plain frame. Link control traffic passes
// through unsequenced.
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
	one := [1]wire.Envelope{env}
	p, err := c.sequence(one[:])
	if p != nil {
		if err = c.inner.Send(one[0]); err != nil {
			p.abandon(one[0].LinkSeq, 1)
		}
	}
	return err
}

// SendBatch implements Conn: the superframe is sequenced and buffered like
// Send's envelope, and ships as one inner superframe — no re-encode, no
// copy, no allocation.
func (c *ResilientConn) SendBatch(envs []wire.Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	p, err := c.sequence(envs)
	if p != nil {
		if err = c.inner.SendBatch(envs); err != nil {
			p.abandon(envs[0].LinkSeq, len(envs))
		}
	}
	return err
}

// sequence stamps envs — data for one peer — in place (the layer owns the
// LinkSeq field) and buffers them for resend, once the peer's window has
// room for all of them; a batch larger than MaxUnacked waits for an empty
// window and then fills it past the bound. It returns the peer to ship to,
// or nil and roomLocked's verdict when nothing is to be shipped.
func (c *ResilientConn) sequence(envs []wire.Envelope) (*linkPeer, error) {
	p := c.peer(envs[0].To)
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok, err := c.roomLocked(p, len(envs)); !ok {
		return nil, err
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
	return p, nil
}

// resendAll retransmits frames stamped by linkPeer.resend.
func (c *ResilientConn) resendAll(envs []wire.Envelope) {
	for i := range envs {
		c.resends.Add(1)
		_ = c.inner.Send(envs[i])
	}
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
