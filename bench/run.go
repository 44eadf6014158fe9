package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"distauction/internal/trace"
	"distauction/internal/transport"
)

// watchdog fails the process with every goroutine's stack when the work it
// guards makes no end within 3x its expected time: a run that stops making
// progress is a bug in the system or the benchmark, and must not hang until
// the driver's timeout. The caller stops the returned timer.
func watchdog(what string, expected time.Duration) *time.Timer {
	limit := 3 * expected
	return time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: %s made no end after %v (3x expected); goroutines:\n", what, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
}

// setupCycle times one bring-up: create the network, attach every node,
// open every market/auction/session, join every bidder lane, and run
// round 1 until every bidder holds its outcome on every lane. Drain and
// close are outside the clock.
func setupCycle(w workload, bids *bidSet) (time.Duration, error) {
	defer watchdog(w.name+" set-up cycle", 10*time.Second).Stop()
	runtime.GC()
	start := time.Now()
	d, err := deploy(w, 1, bids, start, false)
	defer d.close()
	if err != nil {
		return 0, err
	}
	for _, l := range d.lanes {
		if err := l.Submit(1); err != nil {
			return 0, fmt.Errorf("set-up: submit: %w", err)
		}
	}
	failed := 0
	for _, l := range d.lanes {
		failed += l.Await(1)
	}
	elapsed := time.Since(start)
	if err := d.drain(); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	if v := d.verdict(); failed > 0 || !v.ok(w.auctions) {
		return 0, fmt.Errorf("set-up: round 1 failed: %d failed operations, oracle %+v", failed, v)
	}
	return elapsed, nil
}

// measureSetup returns the set-up metric in seconds and the cycles behind
// it. Every cycle runs in a fresh process (this binary with -cold-cycle),
// because that is what an operator bringing a deployment up pays, and
// because cycles repeated inside one process are not alike: the runtime
// warms over the first five to fifteen of them, from about 100 ms to
// about 60 ms on market64-*, and a median taken across that step moves
// with where the step falls.
func measureSetup(w workload, seed int64) (float64, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cycles := make([]float64, 0, setupCycles)
	for i := 0; i < setupCycles; i++ {
		cmd := exec.Command(exe, "-cold-cycle", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, nil, fmt.Errorf("%s: set-up cycle: %w", w.name, err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: set-up cycle: %w", w.name, err)
		}
		cycles = append(cycles, s)
	}
	return medianAfterFirst(cycles), cycles, nil
}

// pass is everything one load run over one fresh deployment produced.
type pass struct {
	rounds    int // per lane
	e2e       endToEnd
	lanes     []laneTimes
	attempted int
	failed    int
	verdict   verdict
	// correct: every observer of every round agreed, every allocation fit
	// the supply, and the market dropped neither a bid nor a parked envelope.
	correct bool

	build, teardown, wall time.Duration

	net           transport.StatsSnapshot
	link          transport.LinkStats
	frames, envs  int64
	bidsDropped   int64
	parkedDropped int64
	residualMsgs  int

	providerRound []time.Duration // every provider's Latency for every (lane, round)
	delivery      []time.Duration // per (lane, round): last bidder holds − first provider reported
	openAuction   []time.Duration
	joinLane      []time.Duration

	cpu          time.Duration
	mallocs      uint64
	allocBytes   uint64
	gcPause      time.Duration
	heapInuse    uint64
	goroutines   int
	phases       [trace.NumPhases]time.Duration // p50 per phase, traced passes only
	spansWritten int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass deploys the workload, drives `rounds` rounds per lane through
// the load generator, checks every outcome, and tears down. traced turns
// the program's tracer on and records the benchmark's own spans, written
// to spanPath.
func runPass(w workload, rounds int, bids *bidSet, traced bool, spanPath string) (*pass, error) {
	p := &pass{rounds: rounds}
	expected := time.Duration(float64(rounds)/float64(w.passRounds)*runSeconds/float64(w.passes)*float64(time.Second)) + 5*time.Second
	defer watchdog(w.name, expected).Stop()

	trace.Reset()
	trace.SetEnabled(traced)
	defer trace.Reset()

	runtime.GC()
	epoch := time.Now()
	d, err := deploy(w, rounds, bids, epoch, traced)
	defer func() {
		t := time.Now()
		d.close()
		p.teardown = time.Since(t)
	}()
	if err != nil {
		return nil, err
	}
	p.build = time.Since(epoch)
	p.openAuction, p.joinLane = d.openAuction, d.joinLane

	logs := make([]*spanLog, len(d.lanes))
	if traced {
		for l := range logs {
			logs[l] = &spanLog{workload: w.name, lane: l, epoch: epoch}
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net0, cpu0 := d.net.Stats(), cpuTime()
	var link0 transport.LinkStats
	if d.link != nil {
		link0 = d.link()
	}

	p.lanes = make([]laneTimes, len(d.lanes))
	start := time.Now()
	t0 := start.Add(20 * time.Millisecond) // open loop: first due time, after every lane goroutine is up
	var wg sync.WaitGroup
	for l := range d.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.open {
				p.lanes[l] = runOpen(d.lanes[l], rounds, t0.Add(time.Duration(l)*w.stagger), w.period, logs[l])
			} else {
				p.lanes[l] = runClosed(d.lanes[l], rounds, w.ahead, logs[l])
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	p.goroutines = runtime.NumGoroutine()
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)

	if err := d.drain(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	net1 := d.net.Stats()
	p.net = transport.StatsSnapshot{MsgsSent: net1.MsgsSent - net0.MsgsSent, BytesSent: net1.BytesSent - net0.BytesSent}
	if d.link != nil {
		l1 := d.link()
		p.link = transport.LinkStats{
			Resends: l1.Resends - link0.Resends, Reconnects: l1.Reconnects - link0.Reconnects,
			DupsDropped: l1.DupsDropped - link0.DupsDropped, Overflow: l1.Overflow - link0.Overflow,
			Heartbeats: l1.Heartbeats - link0.Heartbeats,
		}
	}
	for _, mk := range d.markets {
		s := mk.Stats()
		p.frames += s.FramesSent
		p.envs += s.EnvelopesSent
		p.bidsDropped += s.BidsDropped
		p.parkedDropped += s.ParkedDropped
	}
	if len(d.markets) == 0 {
		// A bare session does not coalesce: every envelope is its own frame.
		p.frames, p.envs = p.net.MsgsSent, p.net.MsgsSent
	}
	if p.residualMsgs = d.residualMsgs(); p.residualMsgs > residualLimit(w) {
		return nil, fmt.Errorf("%s: %d protocol messages still buffered after a drained run (limit %d): per-round state is not reclaimed",
			w.name, p.residualMsgs, residualLimit(w))
	}
	p.verdict = d.verdict()
	p.correct = p.verdict.ok(w.auctions*rounds) && p.bidsDropped == 0 && p.parkedDropped == 0
	if !p.correct {
		fmt.Fprintf(os.Stderr, "bench: INCORRECT: %s: oracle %+v over %d rounds, bids dropped %d, parked dropped %d\n",
			w.name, p.verdict, w.auctions*rounds, p.bidsDropped, p.parkedDropped)
	}

	runtime.GC()
	var settled runtime.MemStats
	runtime.ReadMemStats(&settled)
	p.heapInuse = settled.HeapInuse

	p.attempted = w.auctions * rounds * w.n
	for _, lt := range p.lanes {
		for _, f := range lt.failed {
			p.failed += f
		}
	}
	p.e2e = summarize(p.lanes, w.tailP, ms(roundTimeout))

	for l, lt := range p.lanes {
		for r := warmupRounds(rounds); r < rounds; r++ {
			first := time.Duration(-1)
			for pi := range d.prov {
				pv := d.prov[pi][l]
				p.providerRound = append(p.providerRound, pv.lat[r])
				if first < 0 || pv.at[r] < first {
					first = pv.at[r]
				}
			}
			p.delivery = append(p.delivery, lt.end[r].Sub(epoch)-first)
		}
	}

	if traced {
		for i, h := range trace.PhaseDurations() {
			p.phases[i] = h.QuantileDuration(0.5)
		}
		for pi := range d.prov {
			for _, pv := range d.prov[pi] {
				logs = append(logs, pv.log)
			}
		}
		p.spansWritten, err = writeSpans(spanPath, logs)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}
