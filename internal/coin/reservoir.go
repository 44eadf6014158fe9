package coin

import (
	"context"
	"sync"
	"time"

	"distauction/internal/proto"
	"distauction/internal/wire"
)

// Reservoir pre-tosses common-coin instances for one round so the 3-phase
// commit-echo-reveal exchange overlaps other protocol work instead of
// serializing inside task execution.
//
// A reservoir additionally withholds every reveal until Release is
// called: the commit and echo phases hide the shares, so they can run
// before the bids are even collected — the round engine starts its
// reservoir when the round opens — but no provider can learn a seed before
// the local agreement is *bound* (all m proposal digests held and equal, or
// on agreement's fallback every proposal committed and echo-verified — the
// round engine releases at exactly that point). By the time any party holds
// all shares of an instance, the agreement outcome is a fixed function of
// values already sent at every honest provider — a coalition that sees the
// seed can still only force ⊥ (by refusing or mis-opening), exactly the
// power it already had.
//
// All methods are safe for concurrent use. Each instance is tossed at most
// once per reservoir regardless of how many callers request it — re-tossing
// an instance would re-draw a fresh random share under the same tag, which
// receivers would flag as equivocation.
type Reservoir struct {
	peer     *proto.Peer
	round    uint64
	attachBy time.Time

	release     chan struct{}
	releaseOnce sync.Once

	mu     sync.Mutex
	tosses map[uint32]*pendingToss

	wg sync.WaitGroup
}

// pendingToss is one in-flight (or finished) coin instance.
type pendingToss struct {
	done chan struct{}
	seed uint64
	err  error
}

// NewReservoir creates a reservoir for round. Its reveals are withheld
// until Release; a caller with no binding point to wait for releases it at
// once. A toss's commit retries a provider that has not
// attached yet until attachBy (proto.Peer.BroadcastFirst): a reservoir
// started when its round opens sends the round's first message to the
// providers. The zero time sends it once.
func NewReservoir(peer *proto.Peer, round uint64, attachBy time.Time) *Reservoir {
	return &Reservoir{
		peer:     peer,
		round:    round,
		attachBy: attachBy,
		release:  make(chan struct{}),
	}
}

// Prefetch starts background tosses for the given instances. Instances
// already started (or finished) are skipped.
func (r *Reservoir) Prefetch(ctx context.Context, instances ...uint32) {
	for _, inst := range instances {
		r.start(ctx, inst)
	}
}

// start returns the pending toss for instance, launching it if needed.
func (r *Reservoir) start(ctx context.Context, instance uint32) *pendingToss {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tosses[instance]; ok {
		return t
	}
	t := &pendingToss{done: make(chan struct{})}
	if r.tosses == nil {
		r.tosses = make(map[uint32]*pendingToss)
	}
	r.tosses[instance] = t
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(t.done)
		// The reveal gate: all shares are committed and echo-checked, so the
		// seed is already fixed, but nobody can compute it until it opens.
		gate := func() {
			select {
			case <-r.release:
			case <-ctx.Done():
			}
		}
		tag := wire.Tag{Round: r.round, Block: wire.BlockCoin, Instance: instance}
		t.seed, _, t.err = exchange(ctx, r.peer, tag, nil, gate, nil, nil, r.attachBy)
	}()
	return t
}

// Seed returns the agreed seed for instance, waiting for its toss to finish
// (and starting one on demand if the instance was never prefetched).
func (r *Reservoir) Seed(ctx context.Context, instance uint32) (uint64, error) {
	t := r.start(ctx, instance)
	select {
	case <-t.done:
		return t.seed, t.err
	case <-ctx.Done():
		return 0, context.Cause(ctx)
	}
}

// Release opens the reveal gate. It is idempotent.
func (r *Reservoir) Release() {
	r.releaseOnce.Do(func() { close(r.release) })
}

// Close releases the reveal gate and joins every in-flight toss. It must be
// called before the round's protocol state is reclaimed (EndRound): a toss
// still gathering on a retired round would otherwise race the reclamation.
// On a gated reservoir it must also come after the round is bound (Release)
// or its abort has latched, never before: a toss past the gate reveals
// unless its round is ⊥ or its ctx has ended. Closing twice is harmless;
// tosses on an aborted round unwind promptly via the round's abort signal.
func (r *Reservoir) Close() {
	r.Release()
	r.wg.Wait()
}
