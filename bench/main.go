// Command bench is the repository benchmark: five workloads, four
// end-to-end metrics, and a per-layer budget measured from outside the
// program. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement as printed.
type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name, value, unit})
}

func (m metrics) get(name string) float64 {
	for _, x := range m {
		if x.name == name {
			return x.value
		}
	}
	return 0
}

func (m metrics) print(prefix string) {
	for _, x := range m {
		fmt.Printf("%-44s %14.4f %s\n", prefix+x.name, x.value, x.unit)
	}
}

func (m metrics) json() map[string]any {
	out := make(map[string]any, len(m))
	for _, x := range m {
		out[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return out
}

// result is the last line of standard output.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]any `json:"metrics"`
}

// commit names the checkout's commit, or "unknown" outside a git
// repository (git is kept from searching above the working directory).
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed of the generated bids; changes nothing else")
	seconds := flag.Float64("seconds", runSeconds, "length of one measured run; the frozen round counts are for the default, another value scales them")
	traceMode := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from probes and a traced pass; default both")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of three invocations and compare their medians against the bounds in BENCHMARK.json")
	coldCycle := flag.Bool("cold-cycle", false, "internal, started by the set-up measurement: run one set-up cycle of -workload and print its seconds")
	flag.Parse()

	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds))
	}

	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{w}
	}
	if *coldCycle {
		if len(run) != 1 {
			fatal(fmt.Errorf("-cold-cycle needs -workload"))
		}
		d, err := setupCycle(run[0], generateBids(run[0], 1, *seed))
		if err != nil {
			fatal(err)
		}
		fmt.Println(d.Seconds())
		return
	}

	header := map[string]any{
		"seed": *seed, "seconds": *seconds, "commit": commit(), "claim": nil,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	tails := map[string]float64{}
	for _, w := range run {
		tails[w.name] = w.tailP
	}
	header["tail_percentile"] = tails
	hdr, _ := json.Marshal(header)
	fmt.Printf("# bench %s\n", hdr)

	res := result{Correct: true, Metrics: map[string]any{}}
	var probes metrics
	if *traceMode != 0 {
		var err error
		if probes, err = runProbes(); err != nil {
			fatal(err)
		}
		probes.print("")
	}
	for _, w := range run {
		rounds := w.rounds(*seconds)
		bids := generateBids(w, rounds, *seed)
		prefix := ""
		if len(run) > 1 {
			prefix = w.name + "/"
		}
		// untraced is the pass the per-layer counters of the process, the
		// market and the load generator are read from: the end-to-end
		// measurement's median pass when this invocation makes one.
		var untraced *pass
		if *traceMode != 1 {
			e2e, passes, err := endToEndRun(w, rounds, bids, *seed)
			if err != nil {
				fatal(err)
			}
			e2e.print(w.name + "/")
			res.fold(prefix, e2e, passes...)
			untraced = medianPass(passes)
		}
		if *traceMode != 0 {
			layers, passes, err := perLayerRun(w, rounds, bids, probes, untraced)
			if err != nil {
				fatal(err)
			}
			layers.print(w.name + "/")
			res.fold(prefix, layers, passes...)
		}
	}
	for name, m := range probes.json() {
		res.Metrics[name] = m
	}
	last, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
	if !res.Correct {
		os.Exit(1)
	}
}

// fold adds the passes' operations and correctness, and the metrics
// computed from them, to the result.
func (r *result) fold(prefix string, got metrics, passes ...*pass) {
	for _, p := range passes {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.Correct = r.Correct && p.correct
	}
	for name, m := range got.json() {
		r.Metrics[prefix+name] = m
	}
}

// endToEndRun is the tracing-off measurement: the cold set-up cycles, then
// the workload's passes, each over a fresh deployment with the same bids.
// The run metrics are the medians over the passes.
func endToEndRun(w workload, rounds int, bids *bidSet, seed int64) (metrics, []*pass, error) {
	setup, cycles, err := measureSetup(w, seed)
	if err != nil {
		return nil, nil, err
	}
	var passes []*pass
	var each []endToEnd
	for i := 0; i < w.passes; i++ {
		p, err := runPass(w, rounds, bids, false, "")
		if err != nil {
			return nil, nil, err
		}
		passes, each = append(passes, p), append(each, p.e2e)
		fmt.Printf("# %s pass %d: %.4f rounds/s, p50 %.4f ms, p%g %.4f ms, %d of %d rounds completed\n",
			w.name, i+1, p.e2e.roundsPerS, p.e2e.p50Ms, w.tailP, p.e2e.tailMs, p.e2e.completed, p.e2e.samples)
	}
	if can := tailPercentile(each[0].samples); can < w.tailP {
		fmt.Printf("# %s: WARNING: %d samples per pass leave ten beyond p%g at most, the tail is reported at p%g; run with -seconds %d or more\n",
			w.name, each[0].samples, can, w.tailP, runSeconds)
	}
	e := medianOfPasses(each)
	fmt.Printf("# %s: %d passes of %d lanes x %d rounds, %d samples after warm-up, set-up cycles %.4f s\n",
		w.name, w.passes, w.auctions, rounds, e.samples, cycles)
	var out metrics
	out.add("rounds_per_s", e.roundsPerS, "1/s")
	out.add("round_p50_ms", e.p50Ms, "ms")
	out.add("round_tail_ms", e.tailMs, "ms")
	out.add("setup_s", setup, "s")
	return out, passes, nil
}

// medianPass is the pass whose throughput is the passes' median.
func medianPass(passes []*pass) *pass {
	s := append([]*pass(nil), passes...)
	sort.Slice(s, func(i, j int) bool { return s[i].e2e.roundsPerS < s[j].e2e.roundsPerS })
	return s[len(s)/2]
}

// repoRoot is the repository root relative to the working directory: the
// driver and run.sh start the benchmark at the root, `go run .` starts it
// inside bench/.
func repoRoot() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "."
	}
	return ".."
}

func spanFile(name string) string {
	return filepath.Join(repoRoot(), "bench", "out", "trace-"+name+".json")
}
