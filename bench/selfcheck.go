package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// endToEndSpec is one entry of BENCHMARK.json's end_to_end list: which
// direction is better and by what share of the base the metric may worsen
// before it counts as a regression. The same bound is how closely two sets
// of runs of the same code must agree. The file holds the only copy.
type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (m endToEndSpec) higher() bool { return m.Better == "higher" }

func loadEndToEndSpec() ([]endToEndSpec, error) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []endToEndSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return file.EndToEnd, nil
}

const (
	selfcheckSets = 2
	selfcheckRuns = 3 // invocations per set
)

// invoke runs this binary on one workload with tracing off and returns
// its end-to-end metrics.
func invoke(w workload, seed int64, seconds float64) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-trace", "0",
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line: %w", w.name, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s: correct=%v failed=%d", w.name, res.Correct, res.Failed)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// runSelfcheck measures the host's noise the way the acceptance rule
// does: two sets of three full invocations of the same binary, set
// medians compared per (workload, end-to-end metric) against the bounds.
func runSelfcheck(seed int64, seconds float64) int {
	spec, err := loadEndToEndSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
		return 1
	}
	// medians[set][workload][metric]
	var medians [selfcheckSets]map[string]map[string]float64
	for set := range medians {
		samples := map[string]map[string][]float64{}
		for run := 0; run < selfcheckRuns; run++ {
			for _, w := range workloads {
				vals, err := invoke(w, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
					return 1
				}
				if samples[w.name] == nil {
					samples[w.name] = map[string][]float64{}
				}
				for name, v := range vals {
					samples[w.name][name] = append(samples[w.name][name], v)
				}
				fmt.Fprintf(os.Stderr, "bench: selfcheck: set %d run %d %s done\n", set+1, run+1, w.name)
			}
		}
		medians[set] = map[string]map[string]float64{}
		for wname, byMetric := range samples {
			medians[set][wname] = map[string]float64{}
			for name, xs := range byMetric {
				medians[set][wname][name] = median(xs)
			}
		}
	}

	fmt.Printf("selfcheck: %d sets of %d invocations, seed %d, %g s per run\n", selfcheckSets, selfcheckRuns, seed, seconds)
	fmt.Printf("%-20s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "set 1", "set 2", "apart", "bound", "")
	misses := 0
	for _, w := range workloads {
		for _, m := range spec {
			a, b := medians[0][w.name][m.Name], medians[1][w.name][m.Name]
			apart := max(worseBy(m.higher(), a, b), worseBy(m.higher(), b, a))
			verdict := "ok"
			if !agree(m.higher(), a, b, m.Bound) {
				verdict = "MISS"
				misses++
			}
			fmt.Printf("%-20s %-14s %12.4f %12.4f %7.2f%% %6.0f%%  %s\n", w.name, m.Name, a, b, 100*apart, 100*m.Bound, verdict)
		}
	}
	if misses > 0 {
		fmt.Printf("selfcheck: %d of %d pairs apart by more than their bound\n", misses, len(workloads)*len(spec))
		return 1
	}
	fmt.Println("selfcheck: every pair within its bound")
	return 0
}
