package taskgraph

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"distauction/internal/datatransfer"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/wire"
)

// Executor runs one compiled graph round after round with a persistent
// worker set. The schedule plan — which tasks run locally, their ready
// order, edge wiring and coin numbering — is compiled once at construction
// and reused every round; per-round state lives in pooled execRound arenas,
// so a steady-state round spawns no goroutines and allocates only what the
// round's results themselves need.
//
// Scheduling model: the graph runs as a concurrent DAG schedule. A local
// task becomes ready when every local dependency has finished its compute
// phase, so tasks with disjoint dependency chains run concurrently at
// providers that belong to both, and each task's digest cross-validation
// gather overlaps downstream compute. Ready tasks are fed to long-lived
// workers through a buffered queue sized so handoff never blocks; a worker
// drives its task through compute, digest cross-validation, transitive
// confirmation and publication. A dependency the provider computed itself
// is read from its own copy; only a dependency it did not compute arrives
// as a transfer, received synchronously before the task computes
// (push-mode transports buffer payloads regardless of when the receive
// runs, so this costs no extra round trips). Round aborts cancel in-flight
// work through proto.OnAbort.
//
// Speculation never crosses a trust boundary: a provider starts dependents
// from its own locally computed outputs before their digest gathers
// confirm, but *publishes* nothing — no outbound datatransfer.Send, no
// final return — until every digest gather it transitively relied on has
// confirmed agreement (and the Options.Gate, if any, passed). A mismatch
// anywhere therefore still yields ⊥ for the round before any bad value can
// propagate, exactly as under sequential execution.
//
// At most depth Run calls proceed concurrently; later calls wait for a
// slot. Workers number localTasks×depth so a pipelined round never waits
// for another round's task to release a worker.
type Executor struct {
	peer  *proto.Peer
	g     *Graph
	self  wire.NodeID
	depth int

	localTask  []bool  // per task: self is a group member
	numLocal   int     // count of local tasks
	localDeps  []int32 // per task: number of local dependencies (ready seed)
	dependents [][]int // per local task: local dependents to count down
	needValid  []bool  // per task: a local dependent awaits its validation
	roots      []int   // local tasks ready at round start

	slots chan struct{} // bounds concurrent rounds to depth
	work  chan workItem // ready queue; cap numLocal*depth, send never blocks
	wg    sync.WaitGroup

	mu   sync.Mutex
	free []*execRound

	closeOnce sync.Once
}

// workItem is one ready task of one in-flight round.
type workItem struct {
	er *execRound
	ti int
}

// execRound is the pooled per-round arena: every task's lifecycle state.
// It is owned by exactly one Run call at a time; putRound drops all payload
// references before recycling so a pooled round pins nothing from the
// round it served. Without the recycling, BenchmarkSteadyStateAllocs reads
// 142.0 allocs/round, not 124.1, and market64-closed is flat (EXPERIMENTS.md).
type execRound struct {
	ex    *Executor
	round uint64
	ctx   context.Context
	env   any
	coins CoinSource
	gate  func() error

	states  []execTask
	pending sync.WaitGroup
}

// execTask is one task's per-round lifecycle at the local provider. The
// compute phase ends when result or computeErr is set (dependents may then
// start); validation ends when the digest gather, transitive confirmation
// and publish gate all passed.
type execTask struct {
	er *execRound // backref for the coin closure; set once
	ti int

	depsLeft   atomic.Int32
	draws      int
	coinFn     func() (uint64, error) // built once, reused every round
	inputs     map[uint32][]byte      // recycled TaskContext.Inputs
	tc         TaskContext
	result     []byte
	computeErr error
	computed   bool

	validated chan struct{} // fresh per round, only where needValid
	validErr  error
	ok        bool

	gatherBuf [][]byte // transfer and digest-gather scratch
}

// NewExecutor compiles the schedule plan for g at peer's local provider and
// starts the persistent workers. depth is the maximum number of rounds Run
// executes concurrently (the session's pipeline depth); values < 1 mean 1.
// Close must be called when the session ends.
func NewExecutor(peer *proto.Peer, g *Graph, depth int) *Executor {
	if depth < 1 {
		depth = 1
	}
	ex := &Executor{
		peer:       peer,
		g:          g,
		self:       peer.Self(),
		depth:      depth,
		localTask:  make([]bool, len(g.tasks)),
		localDeps:  make([]int32, len(g.tasks)),
		dependents: make([][]int, len(g.tasks)),
		needValid:  make([]bool, len(g.tasks)),
	}
	for ti := range g.tasks {
		ex.localTask[ti] = proto.ContainsNode(g.tasks[ti].Group, ex.self)
		if ex.localTask[ti] {
			ex.numLocal++
		}
	}
	for ti := range g.tasks {
		if !ex.localTask[ti] {
			continue
		}
		for _, d := range g.tasks[ti].Deps {
			di := g.byID[d]
			if !ex.localTask[di] {
				continue
			}
			ex.localDeps[ti]++
			ex.dependents[di] = append(ex.dependents[di], ti)
			ex.needValid[di] = true
		}
		if ex.localDeps[ti] == 0 {
			ex.roots = append(ex.roots, ti)
		}
	}
	ex.slots = make(chan struct{}, depth)
	ex.work = make(chan workItem, ex.numLocal*depth)
	for i := 0; i < ex.numLocal*depth; i++ {
		ex.wg.Add(1)
		go ex.worker()
	}
	return ex
}

// Close joins in-flight Run calls and drains the workers. A stuck Run must
// be unwound first (closing the peer fails its receives), or Close blocks.
func (ex *Executor) Close() {
	ex.closeOnce.Do(func() {
		// Taking every slot proves no Run is mid-flight (each holds its slot
		// until its tasks fully joined), so nothing can enqueue work anymore.
		for i := 0; i < ex.depth; i++ {
			ex.slots <- struct{}{}
		}
		close(ex.work)
		ex.wg.Wait()
	})
}

func (ex *Executor) worker() {
	defer ex.wg.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("distauction", "taskgraph-worker")))
	for it := range ex.work {
		span := trace.Begin()
		it.er.runTask(it.ti)
		trace.Span(span, trace.PhaseTask, it.er.round, ex.peer.Lane(), ex.peer.Self(),
			trace.NoPeer, int32(ex.g.tasks[it.ti].ID))
		it.er.pending.Done()
	}
}

// Run executes one round of the compiled graph and returns the final
// task's output. env is handed to every task through TaskContext.Env (the
// per-round data a compiled, round-generic graph closes over — e.g. the
// agreed bid vector). Every provider of the round must run an identical
// graph. Deviations, mismatched redundant results and timeouts abort the
// round (⊥).
func (ex *Executor) Run(ctx context.Context, round uint64, env any, opts Options) ([]byte, error) {
	if err := ex.peer.AbortErr(round); err != nil {
		return nil, err
	}

	ex.slots <- struct{}{}
	defer func() { <-ex.slots }()

	// In-flight task bodies should stop promptly when the round dies under
	// them; the abort callback replaces the old per-round watchdog
	// goroutine. A registration that never fires is dropped at EndRound.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ex.peer.OnAbort(round, cancel)

	er := ex.getRound()
	er.reset(round, rctx, env, opts.Coins, opts.Gate)
	er.pending.Add(ex.numLocal)
	for _, ti := range ex.roots {
		ex.work <- workItem{er, ti}
	}
	er.pending.Wait()

	var out []byte
	err := ex.peer.AbortErr(round)
	if err == nil {
		for ti := range er.states {
			if !ex.localTask[ti] {
				continue
			}
			if verr := er.states[ti].validErr; verr != nil {
				// Every failure path aborts the round, so this is normally
				// shadowed by the AbortErr above; keep it as a backstop.
				err = verr
				break
			}
		}
	}
	if err == nil {
		final := &er.states[len(er.states)-1]
		if !final.ok {
			// Unreachable: the final task runs at all providers and a clean
			// validErr was ruled out above.
			err = ex.peer.Fail(round, "taskgraph: final result missing", errInvariant)
		} else {
			out = final.result
		}
	}
	ex.putRound(er)
	return out, err
}

// getRound pops a pooled round arena or builds a fresh one.
func (ex *Executor) getRound() *execRound {
	ex.mu.Lock()
	var er *execRound
	if n := len(ex.free); n > 0 {
		er = ex.free[n-1]
		ex.free[n-1] = nil
		ex.free = ex.free[:n-1]
	}
	ex.mu.Unlock()
	if er != nil {
		return er
	}
	er = &execRound{
		ex:     ex,
		states: make([]execTask, len(ex.g.tasks)),
	}
	for ti := range er.states {
		st := &er.states[ti]
		st.er = er
		st.ti = ti
		if ex.localTask[ti] && ex.g.tasks[ti].UsesCoin {
			st.coinFn = st.drawCoin
		}
	}
	return er
}

// putRound drops every payload reference the round accumulated and
// recycles the arena. Results already escaped to the caller keep living;
// the pool never hands them to another round.
func (ex *Executor) putRound(er *execRound) {
	for ti := range er.states {
		st := &er.states[ti]
		st.result = nil
		st.computeErr = nil
		st.validErr = nil
		st.validated = nil
		st.tc = TaskContext{}
		if st.inputs != nil {
			clear(st.inputs)
		}
		clear(st.gatherBuf)
		st.gatherBuf = st.gatherBuf[:0]
	}
	er.ctx, er.env, er.coins, er.gate = nil, nil, nil, nil
	ex.mu.Lock()
	if len(ex.free) < ex.depth {
		ex.free = append(ex.free, er)
	}
	ex.mu.Unlock()
}

// reset prepares the arena for one round.
func (er *execRound) reset(round uint64, ctx context.Context, env any, coins CoinSource, gate func() error) {
	ex := er.ex
	er.round = round
	er.ctx = ctx
	er.env = env
	er.coins = coins
	er.gate = gate
	for ti := range er.states {
		st := &er.states[ti]
		st.depsLeft.Store(ex.localDeps[ti])
		st.draws = 0
		st.computed = false
		st.ok = false
		if ex.needValid[ti] {
			st.validated = make(chan struct{})
		}
	}
}

// computePhaseDone marks ti's compute phase finished (result or error) and
// enqueues every local dependent whose dependencies are now all computed.
// The atomic countdown orders the dependents' reads of result/computeErr
// after this task's writes.
func (er *execRound) computePhaseDone(ti int) {
	er.states[ti].computed = true
	for _, di := range er.ex.dependents[ti] {
		if er.states[di].depsLeft.Add(-1) == 0 {
			er.ex.work <- workItem{er, di}
		}
	}
}

// runTask drives one local task through compute, cross-validation,
// transitive confirmation and publication — one worker, no spawned
// goroutines. It finishes the compute phase and closes the validated
// channel (where present) on every path.
func (er *execRound) runTask(ti int) {
	ex := er.ex
	st := &er.states[ti]
	t := &ex.g.tasks[ti]
	ctx := er.ctx

	fail := func(err error) {
		if !st.computed {
			st.computeErr = err
			er.computePhaseDone(ti)
		}
		st.validErr = err
		if st.validated != nil {
			close(st.validated)
		}
	}

	inputs, err := er.collectInputs(ti)
	if err != nil {
		fail(err)
		return
	}

	st.tc = TaskContext{Round: er.round, Inputs: inputs, Env: er.env}
	if t.UsesCoin && er.coins != nil {
		st.tc.coinFn = st.coinFn
	}
	out, err := t.Run(ctx, &st.tc)
	if err != nil {
		fail(ex.peer.Fail(er.round, fmt.Sprintf("taskgraph: task %d (%s) failed", t.ID, t.Name), err))
		return
	}
	st.result = out
	er.computePhaseDone(ti) // dependents start speculatively from here

	// Cross-validate the redundant computation within the group: every
	// member broadcasts a digest of its result, this provider's own among
	// them; any mismatch means some member deviated (or the task is
	// nondeterministic) and the round aborts. Publishing a digest commits
	// nothing — the value itself stays local until the gathers below confirm.
	digest := sha256.Sum256(out)
	tag := wire.Tag{Round: er.round, Block: wire.BlockTask, Instance: t.ID, Step: stepTaskDigest}
	for _, member := range t.Group {
		if err := ex.peer.Send(member, tag, digest[:]); err != nil {
			fail(ex.peer.Fail(er.round, fmt.Sprintf("taskgraph: task %d digest send", t.ID), err))
			return
		}
	}
	if _, st.gatherBuf, err = ex.peer.Unanimous(ctx, tag, t.Group, st.gatherBuf); err != nil {
		fail(err)
		return
	}

	// Commit point: everything this result transitively relies on must be
	// confirmed before the value leaves the group (or the final task
	// returns) — speculative compute, withheld publication.
	if err := er.awaitUpstream(ti); err != nil {
		fail(err)
		return
	}

	for _, e := range ex.g.outEdges[ti] {
		if err := datatransfer.Send(ex.peer, er.round, e.instance, e.receivers, out); err != nil {
			fail(err)
			return
		}
	}
	st.ok = true
	if st.validated != nil {
		close(st.validated)
	}
}

// collectInputs assembles the task's inputs, keyed by task ID, into the
// recycled per-task map. Local dependencies have finished their compute
// phase by construction (the ready queue admitted this task) and are read
// from the provider's own copy; every other dependency is an in-edge this
// provider receives, synchronously and unanimity-checked.
func (er *execRound) collectInputs(ti int) (map[uint32][]byte, error) {
	ex := er.ex
	t := &ex.g.tasks[ti]
	st := &er.states[ti]
	if st.inputs == nil {
		st.inputs = make(map[uint32][]byte, len(t.Deps))
	}
	inputs := st.inputs
	for _, d := range t.Deps {
		di, ok := ex.g.byID[d]
		if !ok {
			return nil, ex.peer.Fail(er.round, fmt.Sprintf(
				"taskgraph: task %d (%s) missing input %d", t.ID, t.Name, d), errInvariant)
		}
		if ex.localTask[di] {
			src := &er.states[di]
			if src.computeErr != nil {
				return nil, src.computeErr
			}
			inputs[d] = src.result
			continue
		}
		e := ex.inEdgeFrom(ti, di)
		if e == nil {
			// Unreachable: a consumer outside the producer's group is
			// always one of the edge's receivers.
			return nil, ex.peer.Fail(er.round, fmt.Sprintf(
				"taskgraph: task %d input %d has no transfer edge", t.ID, d), errInvariant)
		}
		// Push-mode transports buffer the payload whether or not anyone is
		// receiving yet, so the synchronous gather waits only for genuinely
		// missing messages. The value is a payload view, so the scratch is
		// free for the next gather.
		v, buf, err := datatransfer.RecvInto(
			er.ctx, ex.peer, er.round, e.instance, ex.g.tasks[di].Group, st.gatherBuf)
		st.gatherBuf = buf
		if err != nil {
			return nil, err
		}
		inputs[d] = v
	}
	return inputs, nil
}

// awaitUpstream blocks until everything the task's result transitively
// relies on is confirmed: validation of every locally supplied dependency
// (its digest gather proved the provider's own copy equal to its group's)
// and the external publish gate. Every received dependency already passed
// its unanimity check in collectInputs.
func (er *execRound) awaitUpstream(ti int) error {
	ex := er.ex
	t := &ex.g.tasks[ti]
	for _, d := range t.Deps {
		di, ok := ex.g.byID[d]
		if !ok {
			// Unreachable: collectInputs already resolved every dependency.
			return ex.peer.Fail(er.round, fmt.Sprintf(
				"taskgraph: task %d dependency %d vanished", t.ID, d), errInvariant)
		}
		if !ex.localTask[di] {
			continue
		}
		src := &er.states[di]
		select {
		case <-src.validated:
		case <-er.ctx.Done():
			return er.failCtx(t, d)
		}
		if src.validErr != nil {
			return src.validErr
		}
	}
	if er.gate != nil {
		if err := er.gate(); err != nil {
			return err
		}
	}
	return nil
}

// drawCoin serves TaskContext.Coin for this task: statically numbered
// instances from the round's shared coin source, bounded by the declared
// schedule. Built once per arena and reused every round.
func (st *execTask) drawCoin() (uint64, error) {
	t := &st.er.ex.g.tasks[st.ti]
	if t.CoinDraws > 0 && st.draws >= t.CoinDraws {
		return 0, fmt.Errorf("%w: task %d declared %d draws", ErrCoinOverdraw, t.ID, t.CoinDraws)
	}
	if st.draws >= maxCoinDraws {
		return 0, fmt.Errorf("%w: task %d exceeded %d draws", ErrCoinOverdraw, t.ID, maxCoinDraws)
	}
	inst := CoinInstance(t.ID, st.draws)
	st.draws++
	return st.er.coins.Seed(st.er.ctx, inst)
}

// inEdgeFrom finds the in-edge of task ti sourced at task di.
func (ex *Executor) inEdgeFrom(ti, di int) *edge {
	for i := range ex.g.inEdges[ti] {
		if ex.g.inEdges[ti][i].from == di {
			return &ex.g.inEdges[ti][i]
		}
	}
	return nil
}

// failCtx converts a context expiry while waiting for dependency d into the
// round's abort, typed by the context's error: a timeout, or closed for a
// cancelled round (an abort that raced in stands).
func (er *execRound) failCtx(t *Task, d uint32) error {
	return er.ex.peer.Fail(er.round, fmt.Sprintf(
		"taskgraph: task %d (%s) waiting for input %d", t.ID, t.Name, d), er.ctx.Err())
}

// errInvariant is the cause of the executor's unreachable failures: a
// graph or schedule invariant broke, a protocol fault with no culprit.
var errInvariant = &proto.AbortError{Code: proto.AbortProtocol, Culprit: wire.Broadcast, Reason: "schedule invariant broken"}
