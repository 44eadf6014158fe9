package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"distauction"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 0},
	} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestFrozenRoundCountsSupportTheFixedTail(t *testing.T) {
	for _, w := range workloads {
		rounds := w.rounds(runSeconds)
		if rounds != w.passRounds {
			t.Errorf("%s: %d rounds at run_seconds, the frozen count is %d", w.name, rounds, w.passRounds)
		}
		samples := w.auctions * (rounds - warmupRounds(rounds))
		if got := tailPercentile(samples); got < w.tailP {
			t.Errorf("%s: %d samples per pass support p%v, the workload reports p%v", w.name, samples, got, w.tailP)
		}
		if !w.market && rounds < 200 {
			t.Errorf("%s: %d rounds, a fig workload never runs under 200", w.name, rounds)
		}
	}
}

func TestMedianAfterFirstDiscardsTheColdCycle(t *testing.T) {
	if got := medianAfterFirst([]float64{9, 1, 3, 2}); got != 2 {
		t.Errorf("got %v, want 2", got)
	}
	if got := medianAfterFirst([]float64{9, 1, 4, 3, 2}); got != 2.5 {
		t.Errorf("got %v, want 2.5", got)
	}
	if got := medianAfterFirst([]float64{7}); got != 7 {
		t.Errorf("a single cycle is its own median, got %v", got)
	}
}

// synthetic builds a lane whose round r (1-based) took lat(r) and started
// at base + r seconds.
func synthetic(base time.Time, rounds int, lat func(r int) time.Duration) laneTimes {
	lt := newLaneTimes(rounds, false)
	for r := 1; r <= rounds; r++ {
		lt.start[r-1] = base.Add(time.Duration(r) * time.Second)
		lt.end[r-1] = lt.start[r-1].Add(lat(r))
	}
	return lt
}

func TestWarmupRoundsAreExcluded(t *testing.T) {
	for rounds, want := range map[int]int{20: 1, 100: 5, 101: 6, 750: 38} {
		if got := warmupRounds(rounds); got != want {
			t.Errorf("warmupRounds(%d) = %d, want %d", rounds, got, want)
		}
	}
	base := time.Unix(1000, 0)
	lt := synthetic(base, 100, func(r int) time.Duration {
		if r <= 5 {
			return time.Hour // cold rounds
		}
		return 10 * time.Millisecond
	})
	e := summarize([]laneTimes{lt}, 99, 30000)
	if e.samples != 95 || e.p50Ms != 10 || e.tailMs != 10 {
		t.Errorf("warm-up leaked into the metrics: %+v", e)
	}
	// 95 rounds from round 6's start to round 100's outcome, 94.01 s later.
	if math.Abs(e.roundsPerS-95/94.01) > 1e-9 {
		t.Errorf("rounds_per_s = %v, want %v", e.roundsPerS, 95/94.01)
	}
}

func TestRunMetricsCoverTheWholePass(t *testing.T) {
	base := time.Unix(1000, 0)
	// 400 measured rounds in lockstep, 100 ms each, except that something in
	// the program (a GC stall, a resend storm) doubles every latency during
	// 40 % of the pass. That is a real loss and must show in full.
	slow := func(r int) bool { return (r >= 100 && r < 180) || (r >= 300 && r < 380) }
	lt := newLaneTimes(421, false)
	now := base
	for r := 1; r <= 421; r++ {
		d := 100 * time.Millisecond
		if slow(r) {
			d *= 2
		}
		lt.start[r-1], lt.end[r-1] = now, now.Add(d)
		now = now.Add(d)
	}
	e := summarize([]laneTimes{lt}, 95, 30000)
	if e.samples != 399 || e.completed != 399 {
		t.Fatalf("%+v", e)
	}
	// 239 rounds of 100 ms and 160 of 200 ms take 55.9 s.
	if math.Abs(e.roundsPerS-399/55.9) > 1e-6 {
		t.Errorf("rounds_per_s = %v, want %v: slow rounds must cost throughput", e.roundsPerS, 399/55.9)
	}
	if e.p50Ms != 100 || e.tailMs != 200 {
		t.Errorf("p50 %v (want 100: 60%% of the rounds), p95 %v (want 200: 40%% are slow)", e.p50Ms, e.tailMs)
	}
}

func TestRunReportsTheMedianOfItsPasses(t *testing.T) {
	calm := endToEnd{roundsPerS: 3000, p50Ms: 100, tailMs: 150, samples: 10, completed: 10}
	stolen := endToEnd{roundsPerS: 2000, p50Ms: 160, tailMs: 400, samples: 10, completed: 9}
	// A neighbour takes the processor during two of five passes.
	e := medianOfPasses([]endToEnd{calm, stolen, calm, calm, stolen})
	if e.roundsPerS != 3000 || e.p50Ms != 100 || e.tailMs != 150 {
		t.Errorf("two disturbed passes of five moved the medians: %+v", e)
	}
	if e.samples != 50 || e.completed != 48 {
		t.Errorf("samples and completed rounds add up over the passes: %+v", e)
	}
	// What is slow in most passes is the program.
	if e := medianOfPasses([]endToEnd{stolen, stolen, calm, calm, stolen}); e.roundsPerS != 2000 || e.tailMs != 400 {
		t.Errorf("%+v", e)
	}
	if e := medianOfPasses([]endToEnd{stolen}); e.roundsPerS != 2000 {
		t.Errorf("one pass is its own median: %+v", e)
	}
}

func TestFailedRoundsRankSlowerThanEverySample(t *testing.T) {
	base := time.Unix(1000, 0)
	lt := synthetic(base, 200, func(int) time.Duration { return 10 * time.Millisecond })
	lt.failed[50], lt.failed[120], lt.failed[199] = 1, 3, 1
	e := summarize([]laneTimes{lt}, 99, 30000)
	if e.samples != 190 || e.completed != 187 {
		t.Fatalf("failed rounds must stay in the sample and not count as completed: %+v", e)
	}
	// 187 completed rounds from round 11's start to round 200's outcome.
	if want := 187 / 189.01; math.Abs(e.roundsPerS-want) > 1e-9 {
		t.Errorf("rounds_per_s = %v, want %v", e.roundsPerS, want)
	}
	if e.tailMs != 30000 {
		t.Errorf("three failed rounds of 190 must own p99: got %v", e.tailMs)
	}
	if e.p50Ms != 10 {
		t.Errorf("p50 = %v, want 10", e.p50Ms)
	}
	// A failed round that the system happened to answer fast is still slow.
	lt.end[120] = lt.start[120].Add(time.Microsecond)
	if e2 := summarize([]laneTimes{lt}, 99, 30000); e2.tailMs != 30000 {
		t.Errorf("a fast failure must not rank fast: %v", e2.tailMs)
	}
}

func TestBoundComparison(t *testing.T) {
	if got := worseBy(true, 100, 93); math.Abs(got-0.07) > 1e-12 {
		t.Errorf("throughput 100 -> 93 is 7%% worse, got %v", got)
	}
	if got := worseBy(false, 100, 107); math.Abs(got-0.07) > 1e-12 {
		t.Errorf("latency 100 -> 107 is 7%% worse, got %v", got)
	}
	if worseBy(true, 100, 110) >= 0 || worseBy(false, 100, 90) >= 0 {
		t.Error("an improvement must not count as worse")
	}
	if !agree(true, 100, 94, 0.07) || agree(true, 100, 92, 0.07) {
		t.Error("agree: 6% apart is within 7%, 8% is not")
	}
	if agree(false, 92, 100, 0.07) {
		t.Error("agree must hold in both directions: 100 is 8.7% worse than 92")
	}
}

// fakeLane serves rounds one at a time, in order, each taking `service`;
// between stallFrom and stallTo it serves nothing.
type fakeLane struct {
	mu                 sync.Mutex
	submitted          map[int]chan struct{}
	service            time.Duration
	stallFrom, stallTo time.Time
	inFlight, maxSeen  int
}

func (f *fakeLane) signal(r int) chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.submitted == nil {
		f.submitted = map[int]chan struct{}{}
	}
	if f.submitted[r] == nil {
		f.submitted[r] = make(chan struct{})
	}
	return f.submitted[r]
}

func (f *fakeLane) Submit(r int) error {
	f.mu.Lock()
	f.inFlight++
	f.maxSeen = max(f.maxSeen, f.inFlight)
	f.mu.Unlock()
	close(f.signal(r))
	return nil
}

func (f *fakeLane) Await(r int) int {
	<-f.signal(r)
	if now := time.Now(); !now.Before(f.stallFrom) && now.Before(f.stallTo) {
		time.Sleep(time.Until(f.stallTo))
	}
	time.Sleep(f.service)
	f.mu.Lock()
	f.inFlight--
	f.mu.Unlock()
	return 0
}

func TestOpenLoopChargesAStallToTheRoundsDueDuringIt(t *testing.T) {
	const period = 10 * time.Millisecond
	t0 := time.Now().Add(5 * time.Millisecond)
	// Stalled from 45 ms to 145 ms: rounds 6..15 fall due meanwhile.
	f := &fakeLane{service: time.Millisecond, stallFrom: t0.Add(45 * time.Millisecond), stallTo: t0.Add(145 * time.Millisecond)}
	lt := runOpen(f, 25, t0, period, nil)
	lat := func(r int) time.Duration { return lt.end[r-1].Sub(lt.start[r-1]) }
	for r := 1; r <= 25; r++ {
		if want := t0.Add(time.Duration(r-1) * period); !lt.start[r-1].Equal(want) {
			t.Fatalf("round %d is timed from %v, not its due time %v", r, lt.start[r-1], want)
		}
	}
	if lat(2) > 30*time.Millisecond {
		t.Errorf("round 2, due before the stall, took %v", lat(2))
	}
	// Round 7 fell due at 60 ms and cannot be served before 145 ms.
	if lat(7) < 80*time.Millisecond {
		t.Errorf("round 7 was due 85 ms before the stall ended but shows only %v", lat(7))
	}
	// Every round due during the stall waits for its end; later ones wait less.
	for r := 7; r <= 14; r++ {
		if lat(r) < lat(r+1)-5*time.Millisecond {
			t.Errorf("round %d (%v) should have waited longer than round %d (%v)", r, lat(r), r+1, lat(r+1))
		}
		if min := t0.Add(145 * time.Millisecond).Sub(lt.start[r-1]); lat(r) < min {
			t.Errorf("round %d shows %v, the stall alone is %v", r, lat(r), min)
		}
	}
	if lat(25) > 30*time.Millisecond {
		t.Errorf("round 25, due after the backlog drained, took %v", lat(25))
	}
	if lag := durationsPercentile(lt.lag, 99); lag > 20*time.Millisecond {
		t.Errorf("the generator itself must not stall with the system: lag %v", lag)
	}
}

func TestClosedLoopKeepsAheadRoundsInFlight(t *testing.T) {
	for _, ahead := range []int{1, 5} {
		f := &fakeLane{service: 100 * time.Microsecond}
		lt := runClosed(f, 40, ahead, nil)
		if f.maxSeen != ahead {
			t.Errorf("ahead=%d: %d rounds were in flight", ahead, f.maxSeen)
		}
		for r := 1; r < 40; r++ {
			if lt.end[r-1].After(lt.end[r]) || lt.start[r-1].After(lt.end[r-1]) {
				t.Fatalf("ahead=%d: round %d times out of order", ahead, r)
			}
		}
	}
}

func outcome(units ...float64) distauction.Outcome {
	o := distauction.Outcome{}
	o.Alloc.NumUsers, o.Alloc.NumProviders = len(units), 1
	for _, u := range units {
		o.Alloc.Units = append(o.Alloc.Units, distauction.Fx(u))
	}
	o.Pay.ByUser = make([]distauction.Fixed, len(units))
	o.Pay.ToProvider = make([]distauction.Fixed, 1)
	return o
}

func TestOutcomeOracle(t *testing.T) {
	supply := []distauction.Fixed{distauction.Fx(2)}
	c := newLaneCheck(3, supply)
	for i := 0; i < 3; i++ {
		c.observe(1, outcome(1, 0.5), false)      // all agree
		c.observe(2, distauction.Outcome{}, true) // all ⊥
	}
	if v := c.verdict(); !v.ok(2) {
		t.Fatalf("agreement and unanimous ⊥ are both correct: %+v", v)
	}
	c.observe(3, outcome(1, 0.5), false)
	c.observe(3, outcome(1, 0.6), false) // one observer differs
	c.observe(3, outcome(1, 0.5), false)
	c.observe(4, outcome(1, 0.5), false)
	c.observe(4, distauction.Outcome{}, true) // one observer holds ⊥
	c.observe(4, outcome(1, 0.5), false)
	if v := c.verdict(); v.disagreements != 2 {
		t.Errorf("want 2 disagreements, got %+v", v)
	}
	for i := 0; i < 3; i++ {
		c.observe(5, outcome(1.5, 1), false) // 2.5 allocated of 2
	}
	c.observe(6, outcome(1), false) // two observers never report
	v := c.verdict()
	if v.oversupplied != 1 || v.incomplete != 1 || v.complete != 5 || v.ok(6) {
		t.Errorf("got %+v", v)
	}
}

func TestSeedChangesOnlyTheBids(t *testing.T) {
	w, _ := findWorkload("fig5-standard-n60")
	a, b, c := generateBids(w, 3, 1), generateBids(w, 3, 1), generateBids(w, 3, 2)
	if a.users[0][2][59] != b.users[0][2][59] {
		t.Error("the same seed must give the same bids")
	}
	if a.users[0][0][0] == c.users[0][0][0] {
		t.Error("another seed must give other bids")
	}
	if x, y := standardCapacities(w), standardCapacities(w); x[3] != y[3] {
		t.Error("capacities are deployment facts and must not move")
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the contract file and the command
// from drifting apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the round counts are frozen for %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, code has %q", i, file.Workloads[i].Name, w.name)
		}
	}
	spec, err := loadEndToEndSpec()
	if err != nil {
		t.Fatal(err)
	}
	// The names and units endToEndRun prints.
	want := []endToEndSpec{
		{Name: "rounds_per_s", Unit: "1/s", Better: "higher"}, {Name: "round_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "round_tail_ms", Unit: "ms", Better: "lower"}, {Name: "setup_s", Unit: "s", Better: "lower"},
	}
	if len(spec) != len(want) {
		t.Fatalf("%d end-to-end metrics in the file, the command prints %d", len(spec), len(want))
	}
	for i, m := range spec {
		if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: file has %+v", i, m)
		}
	}
}
