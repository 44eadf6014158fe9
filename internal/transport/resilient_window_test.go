package transport

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"distauction/internal/wire"
)

// refWindow is the resend buffer as it was before the ring: a slice of
// seqs in send order, shifted down on every ack. It stays here as the
// reference the ring is checked against.
type refWindow struct {
	unacked []uint64
}

func (r *refWindow) track(seq uint64) { r.unacked = append(r.unacked, seq) }

func (r *refWindow) ack(ack uint64) {
	drop := 0
	for drop < len(r.unacked) && r.unacked[drop] <= ack {
		drop++
	}
	r.unacked = r.unacked[:copy(r.unacked, r.unacked[drop:])]
}

// TestResilientWindowMatchesReference drives the ring and the old slice
// through the same random track / cumulative-ack / resend-scan sequences,
// with send bursts that stop at the bound as a waiting sender does: same
// frames retained in the same order, nothing evicted, and no payload
// reference left in a slot the window released. The timer scan is the one place the ring
// differs on purpose — it stops at the first frame inside the timeout —
// so it is checked against the ring's own state: exactly the overdue run
// at the old end, each frame restamped.
func TestResilientWindowMatchesReference(t *testing.T) {
	const ops = 12000
	for _, size := range []int{1, 2, 7, 1024} {
		rng := rand.New(rand.NewSource(int64(size)))
		c := &ResilientConn{cfg: ResilientConfig{MaxUnacked: size}.withDefaults()}
		p := &linkPeer{id: 2}
		ref := &refWindow{}
		now := time.Unix(1000, 0)
		for op := 0; op < ops; op++ {
			now = now.Add(time.Duration(rng.Intn(int(c.cfg.ResendAfter / 4))))
			switch k := rng.Intn(10); {
			case k < 6: // a burst of sends; long ones stop at the bound
				for n := 1 + rng.Intn(1+size/3); n > 0 && p.n < size; n-- {
					p.nextSeq++
					env := wire.Envelope{To: 2, LinkSeq: p.nextSeq, Payload: []byte{byte(p.nextSeq)}}
					p.track(c, env, now)
					ref.track(p.nextSeq)
				}
			case k < 9: // a cumulative ack: stale, partial, or past nextSeq
				ack := uint64(0)
				if span := int64(p.nextSeq) + 3; rng.Intn(4) > 0 {
					ack = uint64(rng.Int63n(span))
				}
				p.dropAckedLocked(ack, now)
				ref.ack(ack)
			default: // the resend timer
				var want []uint64
				for i := 0; i < p.n && now.Sub(p.frame(i).sentAt) >= c.cfg.ResendAfter; i++ {
					want = append(want, p.frame(i).env.LinkSeq)
				}
				var got []uint64
				for _, env := range p.overdue(c, now, nil) {
					got = append(got, env.LinkSeq)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("size %d op %d: resend scan picked %v, overdue run is %v", size, op, got, want)
				}
				for i := range got {
					if f := p.frame(i); !f.sentAt.Equal(now) || !f.resent {
						t.Fatalf("size %d op %d: resent seq %d not restamped", size, op, got[i])
					}
				}
			}
			if p.n != len(ref.unacked) || c.overflow.Load() != 0 {
				t.Fatalf("size %d op %d: %d frames / %d evictions, reference %d / 0",
					size, op, p.n, c.overflow.Load(), len(ref.unacked))
			}
			for i, want := range ref.unacked {
				if f := p.frame(i); f.env.LinkSeq != want || f.env.Payload == nil {
					t.Fatalf("size %d op %d: slot %d holds seq %d, reference seq %d", size, op, i, f.env.LinkSeq, want)
				}
			}
			for i := p.n; i < len(p.ring); i++ {
				if f := p.frame(i); f.env.Payload != nil || f.env.LinkSeq != 0 {
					t.Fatalf("size %d op %d: released slot %d still references seq %d", size, op, i, f.env.LinkSeq)
				}
			}
		}
		if len(p.ring) > size {
			t.Fatalf("size %d: ring grew to %d slots", size, len(p.ring))
		}
	}
}

// control builds a link control frame the way sendControl does, except
// that the payload is the caller's, well-formed or not.
func control(from, to wire.NodeID, kind uint8, ack uint64, payload []byte) wire.Envelope {
	return wire.Envelope{
		From:    from,
		To:      to,
		Tag:     wire.Tag{Round: ack, Block: wire.BlockLink, Step: kind},
		Payload: payload,
	}
}

// FuzzLinkControl feeds arbitrary link control frames — acks with and
// without a gap hint, heartbeats, floors, truncated and over-long
// payloads, hints below the ack, floors past anything sent or behind what
// is delivered — to both ends of a wrapped pair with traffic, loss and
// timer ticks in between. Whatever arrives, the link never panics, never
// moves a contiguous prefix backwards, never delivers a data frame twice,
// and never releases a frame that neither a received ack value nor the
// peer's actual progress covers. A send that would wait on a full window
// is skipped: nothing else in the script could make room.
//
// The script is a byte string of ops: 0 send n frames 1→2, 1 the same
// 2→1, 2 toggle loss on node 1's sends, 3/4 inject a control frame into
// node 1/node 2 (kind, ack, payload length, payload), 5 run both tickers
// one resend timeout ahead.
func FuzzLinkControl(f *testing.F) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	inject := func(into byte, kind uint8, ack uint64, payload []byte) []byte {
		return append([]byte{into, kind, byte(ack), byte(len(payload))}, payload...)
	}
	// Frames as the tests above put them on the wire, around a hole made by
	// losing three of eight frames: plain ack, ack with hint, heartbeat,
	// heartbeat with hint, floor.
	hole := []byte{0, 2, 2, 0, 2, 2, 0, 2}
	for _, ctl := range [][]byte{
		inject(3, linkAck, 3, nil),
		inject(3, linkAck, 3, uv(7)),
		inject(3, linkHeartbeat, 3, nil),
		inject(3, linkHeartbeat, 3, uv(7)),
		inject(4, linkFloor, 0, uv(6)),
		inject(3, linkAck, 3, []byte{0x80}),     // truncated hint
		inject(3, linkAck, 3, append(uv(7), 1)), // over-long
		inject(3, linkAck, 3, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}), // overflowing varint
		inject(3, linkAck, 5, uv(2)),                                              // hint below the ack
		inject(3, linkAck, 200, uv(250)),                                          // ack and hint past nextSeq
		inject(4, linkFloor, 0, uv(1<<40)),                                        // floor past anything sent
		append(inject(4, linkFloor, 0, uv(6)), inject(4, linkFloor, 0, uv(4))...), // floor regressing
		inject(4, 9, 0, uv(6)),                                                    // unknown kind
	} {
		f.Add(append(slices.Clone(hole), ctl...))
		f.Add(append(append(slices.Clone(hole), ctl...), 5, 0, 4, 1, 4, 5))
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			return // long scripts only repeat what short ones reach
		}
		hub := NewHub(LatencyModel{}, 1)
		defer hub.Close()
		raw1, _ := hub.Attach(1)
		raw2, _ := hub.Attach(2)
		lossy := &flakyConn{Conn: raw1}
		// No ticker goroutines: op 5 is the clock.
		const maxUnacked = 16 // small enough for a script to run into it
		cfg := ResilientConfig{MaxUnacked: maxUnacked}
		conns := map[wire.NodeID]*ResilientConn{
			1: newResilientConn(lossy, cfg),
			2: newResilientConn(raw2, cfg),
		}
		defer conns[1].Close()
		defer conns[2].Close()

		delivered := map[[2]uint64]bool{} // {sender, message number}
		for id, c := range conns {
			c.SetHandler(func(env wire.Envelope) {
				key := [2]uint64{uint64(env.From), env.Tag.Round}
				if delivered[key] {
					t.Fatalf("node %d: message %d from %d delivered twice", id, env.Tag.Round, env.From)
				}
				delivered[key] = true
			})
		}
		// Per direction from→to: the highest ack value node from was ever
		// shown (forged or real), and node to's contiguous prefix.
		other := map[wire.NodeID]wire.NodeID{1: 2, 2: 1}
		forged := map[wire.NodeID]uint64{}
		contig := map[wire.NodeID]uint64{}
		check := func(op int) {
			for id, c := range conns {
				snd, rcv := c.peer(other[id]), conns[other[id]].peer(id)
				if rcv.contig < contig[id] {
					t.Fatalf("op %d: node %d's prefix of node %d went back %d → %d", op, other[id], id, contig[id], rcv.contig)
				}
				contig[id] = rcv.contig
				// Released without cover: the window's base is past every ack
				// value this node was shown and past what the peer really has.
				if base := snd.nextSeq - uint64(snd.n); base > max(forged[id], rcv.contig) {
					t.Fatalf("op %d: node %d released up to seq %d; acks shown ≤ %d, peer's prefix %d",
						op, id, base, forged[id], rcv.contig)
				}
			}
		}
		var msg [3]uint64
		now := time.Now()
		for op := 0; len(script) > 0; op++ {
			b := script[0]
			script = script[1:]
			switch b % 6 {
			case 0, 1:
				from := wire.NodeID(1 + b%6)
				n := 1
				if len(script) > 0 {
					n, script = 1+int(script[0]%8), script[1:]
				}
				for snd := conns[from].peer(other[from]); n > 0; n-- {
					if snd.n >= maxUnacked && snd.state != HealthDead {
						break
					}
					msg[from]++
					env := dataEnv(from, other[from], int(msg[from]))
					if msg[from]%3 == 0 {
						_ = conns[from].SendBatch([]wire.Envelope{env})
					} else {
						_ = conns[from].Send(env)
					}
				}
			case 2:
				lossy.setMute(!lossy.mute)
			case 3, 4:
				into := wire.NodeID(b%6 - 2)
				if len(script) < 3 {
					return
				}
				kind, ack, n := script[0], uint64(script[1]), min(int(script[2]), len(script)-3)
				payload := script[3 : 3+n]
				script = script[3+n:]
				forged[into] = max(forged[into], ack)
				conns[into].onInner(control(other[into], into, kind, ack, payload))
			case 5:
				now = now.Add(cfg.withDefaults().ResendAfter)
				conns[1].tick(now)
				conns[2].tick(now)
			}
			check(op)
		}
	})
}
