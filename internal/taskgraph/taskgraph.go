// Package taskgraph implements the parallel simulation of the allocation
// algorithm A (§4.2 of the paper, Figures 2 and 3).
//
// The execution of A is decomposed into a DAG of tasks. Each task is
// assigned to a group of at least k+1 providers, so no coalition of size ≤ k
// controls any task; group members execute the task redundantly and
// cross-validate their results by digest. When a task's result is needed by
// a task with a different group, it crosses via the data-transfer block —
// to the consumer-group members that did not compute it, and only to them:
// a member of both groups reads its own copy, which the producer's digest
// gather has already proven equal to every other member's.
// Tasks that draw randomness obtain it from the common coin; such tasks must
// be assigned to the full provider set, because the coin involves everyone.
// The final task depends (transitively) on every other task, runs at all
// providers, and its result is the allocator's output.
//
// Two providers assigned to disjoint tasks execute them concurrently — this
// is where the framework's parallel speedup (Figure 5) comes from.
package taskgraph

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"distauction/internal/proto"
	"distauction/internal/wire"
)

const stepTaskDigest uint8 = 1

// ErrBadGraph reports a structurally invalid task graph.
var ErrBadGraph = errors.New("taskgraph: invalid graph")

// ErrCoinUnavailable reports a Coin() call from a task not assigned to the
// full provider set.
var ErrCoinUnavailable = errors.New("taskgraph: coin requires a full-provider task")

// ErrCoinOverdraw reports a task drawing more coins than it declared (or
// than the per-task instance space allows). The draw schedule must be
// static so instances can be numbered — and prefetched — identically at
// every provider.
var ErrCoinOverdraw = errors.New("taskgraph: coin draw beyond the task's declared schedule")

// maxCoinDraws is the per-task coin instance space: instance numbers are
// taskID<<8 | drawIdx, so a task has 256 draw slots.
const maxCoinDraws = 1 << 8

// maxCoinTaskID bounds the ID of a coin-drawing task so the shifted
// instance number fits the tightest instance space any transport offers:
// the marketplace's lane encoding carries 20-bit block-local instances
// (wire.LaneBits), and CoinInstance(4095, 255) == 1<<20 - 1 exactly.
// Validating here means an oversized graph fails at New() instead of
// aborting every round at send time under a market.
const maxCoinTaskID = 1<<12 - 1

// CoinInstance returns the wire instance number of a task's draw'th coin
// toss. The numbering is static — a pure function of the task ID and the
// draw index — so every provider tosses the same instances regardless of
// execution order, and all declared instances can be pre-tossed at round
// start.
func CoinInstance(taskID uint32, draw int) uint32 {
	return taskID<<8 | uint32(draw)
}

// TaskContext carries a task's inputs and services into its Run function.
//
// The context and its Inputs map are owned by the scheduler for the round:
// a Run function must not retain either past its return (copy anything it
// needs to keep). Input values themselves are views into
// the round's protocol buffers and follow the same rule.
type TaskContext struct {
	// Round is the auction round being simulated.
	Round uint64
	// Inputs holds the outputs of the task's dependencies, keyed by task ID.
	Inputs map[uint32][]byte
	// Env is the round environment the executor was invoked with (see
	// Executor.Run): per-round data — such as the agreed bid vector — for
	// graphs compiled once and reused across rounds. Nil under Execute.
	Env any

	coinFn func() (uint64, error)
}

// Coin draws a shared random seed from the common coin. All group members
// obtain the same seed. Only tasks assigned to the full provider set may
// call it; Validate enforces the restriction statically for graphs that
// declare UsesCoin.
func (tc *TaskContext) Coin() (uint64, error) {
	if tc.coinFn == nil {
		return 0, ErrCoinUnavailable
	}
	return tc.coinFn()
}

// TaskFunc is the deterministic computation of one task: same inputs and
// same coin draws must yield identical bytes at every group member.
type TaskFunc func(ctx context.Context, tc *TaskContext) ([]byte, error)

// Task is a node of the graph.
type Task struct {
	// ID identifies the task; IDs must be unique and topologically ordered
	// (every dependency has a smaller ID than its dependent).
	ID uint32
	// Name appears in error messages.
	Name string
	// Deps lists the task IDs whose outputs this task consumes.
	Deps []uint32
	// Group is the provider set that executes the task (≥ k+1 members).
	Group []wire.NodeID
	// UsesCoin declares that Run calls TaskContext.Coin.
	UsesCoin bool
	// CoinDraws declares how many times Run calls TaskContext.Coin. Declared
	// draws are numbered statically (CoinInstance) and pre-tossed
	// concurrently at execution start, so the commit-echo-reveal exchange
	// overlaps task compute instead of serializing inside it. Drawing more
	// than declared fails the round; zero with UsesCoin set means the task
	// draws on demand (statically numbered, but not prefetched).
	CoinDraws int
	// Run is the task body.
	Run TaskFunc
}

// Graph is a validated task decomposition.
type Graph struct {
	tasks    []Task
	edges    []edge   // transfer plan, ordered deterministically
	inEdges  [][]edge // per task: edges delivering its inputs
	outEdges [][]edge // per task: edges publishing its result

	coinInstances []uint32       // declared draws, statically numbered
	needsCoin     bool           // any task draws (declared or on demand)
	byID          map[uint32]int // task ID → index into tasks
}

// edge is a data dependency (from → to) that some consumer did not
// compute: the producer's group sends the value to receivers, the members
// of the consumer's group outside the producer's.
type edge struct {
	from, to  int // indexes into tasks
	instance  uint32
	receivers []wire.NodeID
}

// New assembles and validates a graph for the given provider set and
// coalition bound k.
func New(providers []wire.NodeID, k int, tasks []Task) (*Graph, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("%w: no tasks", ErrBadGraph)
	}
	sorted := append([]Task(nil), tasks...)
	slices.SortFunc(sorted, func(a, b Task) int { return cmp.Compare(a.ID, b.ID) })

	all := append([]wire.NodeID(nil), providers...)
	proto.SortNodes(all)

	index := make(map[uint32]int, len(sorted))
	for i := range sorted {
		t := &sorted[i]
		if _, dup := index[t.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate task id %d", ErrBadGraph, t.ID)
		}
		index[t.ID] = i
		if t.Run == nil {
			return nil, fmt.Errorf("%w: task %d has no Run", ErrBadGraph, t.ID)
		}
		if len(t.Group) < k+1 {
			return nil, fmt.Errorf("%w: task %d group has %d members, need ≥ k+1 = %d",
				ErrBadGraph, t.ID, len(t.Group), k+1)
		}
		t.Group = append([]wire.NodeID(nil), t.Group...)
		proto.SortNodes(t.Group)
		for _, g := range t.Group {
			if !proto.ContainsNode(all, g) {
				return nil, fmt.Errorf("%w: task %d group member %d is not a provider", ErrBadGraph, t.ID, g)
			}
		}
		if t.CoinDraws < 0 || t.CoinDraws > maxCoinDraws {
			return nil, fmt.Errorf("%w: task %d declares %d coin draws (0..%d allowed)",
				ErrBadGraph, t.ID, t.CoinDraws, maxCoinDraws)
		}
		if t.CoinDraws > 0 {
			t.UsesCoin = true
		}
		if t.UsesCoin {
			if !proto.EqualNodes(t.Group, all) {
				return nil, fmt.Errorf("%w: task %d uses the coin but is not assigned to all providers",
					ErrBadGraph, t.ID)
			}
			if t.ID > maxCoinTaskID {
				return nil, fmt.Errorf("%w: task %d draws coins but its ID exceeds %d",
					ErrBadGraph, t.ID, maxCoinTaskID)
			}
		}
		for _, d := range t.Deps {
			j, ok := index[d]
			if !ok || sorted[j].ID >= t.ID {
				return nil, fmt.Errorf("%w: task %d depends on %d which is missing or not earlier",
					ErrBadGraph, t.ID, d)
			}
		}
	}

	// The final task must run at all providers and transitively depend on
	// every other task, so that the framework's output exists everywhere
	// and reflects the whole computation.
	final := &sorted[len(sorted)-1]
	if !proto.EqualNodes(final.Group, all) {
		return nil, fmt.Errorf("%w: final task %d must be assigned to all providers", ErrBadGraph, final.ID)
	}
	reach := make(map[uint32]bool, len(sorted))
	var mark func(id uint32)
	mark = func(id uint32) {
		if reach[id] {
			return
		}
		reach[id] = true
		for _, d := range sorted[index[id]].Deps {
			mark(d)
		}
	}
	mark(final.ID)
	if len(reach) != len(sorted) {
		return nil, fmt.Errorf("%w: final task does not depend on every task (%d of %d reachable)",
			ErrBadGraph, len(reach), len(sorted))
	}

	// Compile the transfer plan in deterministic order; the edge index is
	// the data-transfer instance number at every provider.
	g := &Graph{
		tasks:    sorted,
		inEdges:  make([][]edge, len(sorted)),
		outEdges: make([][]edge, len(sorted)),
		byID:     index,
	}
	for i := range sorted {
		t := &sorted[i]
		deps := append([]uint32(nil), t.Deps...)
		slices.Sort(deps)
		for _, d := range deps {
			from := index[d]
			var receivers []wire.NodeID
			for _, c := range t.Group {
				if !proto.ContainsNode(sorted[from].Group, c) {
					receivers = append(receivers, c)
				}
			}
			if len(receivers) == 0 {
				continue // every consumer computed the value itself
			}
			e := edge{from: from, to: i, instance: uint32(len(g.edges)), receivers: receivers}
			g.edges = append(g.edges, e)
			g.inEdges[i] = append(g.inEdges[i], e)
			g.outEdges[from] = append(g.outEdges[from], e)
		}
		if t.UsesCoin {
			g.needsCoin = true
			for draw := 0; draw < t.CoinDraws; draw++ {
				g.coinInstances = append(g.coinInstances, CoinInstance(t.ID, draw))
			}
		}
	}
	return g, nil
}

// CoinInstances returns the statically numbered coin instances declared by
// the graph's tasks, in task order. The slice is shared; callers must not
// modify it.
func (g *Graph) CoinInstances() []uint32 { return g.coinInstances }

// UsesCoin reports whether any task draws the coin, declared or on demand.
func (g *Graph) UsesCoin() bool { return g.needsCoin }

// Tasks returns the tasks in execution (ID) order.
func (g *Graph) Tasks() []Task { return g.tasks }

// NumTransfers returns the number of transfers per execution: the
// dependencies with at least one consumer outside the producer's group.
func (g *Graph) NumTransfers() int { return len(g.edges) }

// Groups partitions providers into ⌊m/(k+1)⌋ disjoint groups of at least
// k+1 members each (§5.2.2: payments are computed by c groups, each with at
// least k+1 providers). Leftover providers join the last group.
func Groups(providers []wire.NodeID, k int) [][]wire.NodeID {
	m := len(providers)
	size := k + 1
	c := m / size
	if c == 0 {
		return nil
	}
	sorted := append([]wire.NodeID(nil), providers...)
	proto.SortNodes(sorted)
	groups := make([][]wire.NodeID, 0, c)
	for gi := 0; gi < c; gi++ {
		lo := gi * size
		hi := lo + size
		if gi == c-1 {
			hi = m // leftovers join the last group
		}
		groups = append(groups, sorted[lo:hi:hi])
	}
	return groups
}
