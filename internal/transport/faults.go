package transport

import (
	"math/rand"
	"sync"
	"time"

	"distauction/internal/wire"
)

// killBlackout is how long a Kill keeps a node dark.
const killBlackout = 30 * time.Millisecond

// Faults is the fault mix a Hub injects on every hop: the lossy links the
// link layer (Resilient) must turn back into the reliable channels the
// protocol assumes. Probabilities are per hop, so a superframe is dropped,
// duplicated or delayed whole, as a lost wire frame would be.
type Faults struct {
	// Drop is the probability a hop is silently discarded.
	Drop float64
	// Dup is the probability a hop is delivered twice.
	Dup float64
	// DelayProb is the probability a hop is held back a uniform extra
	// delay in [DelayMin, DelayMax], on top of the latency model's.
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
}

// FaultStats counts the faults a Hub injected. A dropped superframe counts
// every envelope in it.
type FaultStats struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Kills      int64
}

// faultModel is a Hub's fault state. Each sender draws from its own stream,
// derived from the Hub's seed, so its fault schedule does not depend on
// anyone else's traffic.
type faultModel struct {
	seed int64

	mu        sync.Mutex
	faults    Faults
	rngs      map[wire.NodeID]*rand.Rand
	cut       map[[2]wire.NodeID]bool
	darkUntil map[wire.NodeID]time.Time
	stats     FaultStats
}

// faultModel returns the Hub's fault model, installing it on first use.
func (h *Hub) faultModel() *faultModel {
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.faults.Load()
	if f == nil {
		f = &faultModel{
			seed:      h.seed,
			rngs:      make(map[wire.NodeID]*rand.Rand),
			cut:       make(map[[2]wire.NodeID]bool),
			darkUntil: make(map[wire.NodeID]time.Time),
		}
		h.faults.Store(f)
	}
	return f
}

// SetFaults installs the fault mix every later hop on the Hub is judged by.
func (h *Hub) SetFaults(p Faults) {
	f := h.faultModel()
	f.mu.Lock()
	f.faults = p
	f.mu.Unlock()
}

// SetPartition installs or heals a one-way partition: every hop from→to is
// dropped while it is up. Call it for both directions to cut a link.
func (h *Hub) SetPartition(from, to wire.NodeID, up bool) {
	f := h.faultModel()
	f.mu.Lock()
	defer f.mu.Unlock()
	if up {
		f.cut[[2]wire.NodeID{from, to}] = true
	} else {
		delete(f.cut, [2]wire.NodeID{from, to})
	}
}

// Kill takes node id down for a 30 ms blackout: every hop to or from it is
// dropped until the blackout ends, as if its connections died and came
// back.
func (h *Hub) Kill(id wire.NodeID) {
	f := h.faultModel()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Kills++
	f.darkUntil[id] = time.Now().Add(killBlackout)
}

// FaultStats returns the injected-fault counters.
func (h *Hub) FaultStats() FaultStats {
	f := h.faults.Load()
	if f == nil {
		return FaultStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// judge draws one hop's fate: how many copies arrive (0 when dropped, 2
// when duplicated) and the extra delay they carry. A partition or a
// blackout drops the hop without a draw.
func (f *faultModel) judge(from, to wire.NodeID, n int) (copies int, extra time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	if f.cut[[2]wire.NodeID{from, to}] || now.Before(f.darkUntil[from]) || now.Before(f.darkUntil[to]) {
		f.stats.Dropped += int64(n)
		return 0, 0
	}
	rng := f.rngs[from]
	if rng == nil {
		rng = rand.New(rand.NewSource(f.seed ^ (int64(from)+1)*0x5851F42D4C957F2D))
		f.rngs[from] = rng
	}
	p := f.faults
	if p.Drop > 0 && rng.Float64() < p.Drop {
		f.stats.Dropped += int64(n)
		return 0, 0
	}
	copies = 1
	if p.Dup > 0 && rng.Float64() < p.Dup {
		copies = 2
		f.stats.Duplicated++
	}
	if p.DelayProb > 0 && rng.Float64() < p.DelayProb {
		extra = p.DelayMin
		if span := p.DelayMax - p.DelayMin; span > 0 {
			extra += time.Duration(rng.Int63n(int64(span)))
		}
		f.stats.Delayed++
	}
	return copies, extra
}
