// Package figures regenerates the paper's evaluation figures (§6).
//
// Figure 4: double-auction running time vs number of users, for a
// centralized trusted auctioneer and for the distributed simulation with
// k = 1 (3 providers), k = 2 (5) and k = 3 (8) — the paper's "minimum
// required number of providers out of a total of 8".
//
// Figure 5: standard-auction running time vs number of users with m = 8
// providers, for p = 1 (centralized serial), p = 2 (k = 3) and p = 4
// (k = 1), where p = ⌊m/(k+1)⌋ is the parallelism of the payment stage.
//
// Both figures run over the in-memory transport with the community-network
// latency model; the standard auction's full-scale compute time is modeled
// (see standardauction.Params.ModelDelay) because this host cannot dedicate
// a CPU to each of the 8 providers the way the paper's testbed did.
// Absolute times therefore differ from the paper; the *shape* — who wins,
// by what factor, where the curves bend — is the reproduction target.
// EXPERIMENTS.md records paper-vs-measured values.
package figures

import (
	"fmt"
	"io"
	"time"

	"distauction/internal/harness"
	"distauction/internal/metrics"
	"distauction/internal/transport"
)

// Options tunes a figure run.
type Options struct {
	// Rounds is the number of repetitions averaged per point (paper: 100).
	Rounds int
	// Latency is the link model; zero value means CommunityNetModel.
	Latency transport.LatencyModel
	// BaseSeed varies workloads across rounds.
	BaseSeed uint64
	// Quick shrinks the sweep for smoke tests.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 5
	}
	if o.Latency.Zero() {
		o.Latency = transport.CommunityNetModel()
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	return o
}

// Fig4Point is one x-position of Figure 4.
type Fig4Point struct {
	N           int
	Centralized time.Duration
	K1          time.Duration // 3 providers
	K2          time.Duration // 5 providers
	K3          time.Duration // 8 providers
}

// Fig4Ns returns the user counts swept by Figure 4.
func Fig4Ns(quick bool) []int {
	if quick {
		return []int{50, 200}
	}
	return []int{100, 200, 400, 600, 800, 1000}
}

// fig4Series are Figure 4's curves, in Fig4Point's column order: the
// trusted auctioneer with m = 8, then the distributed simulation at
// k = 1, 2, 3.
var fig4Series = []struct {
	m, k int
	cent bool
}{{8, 0, true}, {3, 1, false}, {5, 2, false}, {8, 3, false}}

// fig4Run deploys repetition r of series s at n users.
func fig4Run(opts Options, s, n, r int) (harness.Result, error) {
	o := []harness.Option{
		harness.WithProviders(fig4Series[s].m), harness.WithUsers(n), harness.WithK(fig4Series[s].k),
		harness.WithLatency(opts.Latency),
		harness.WithSeed(opts.BaseSeed + uint64(r)*7919),
	}
	if fig4Series[s].cent {
		return harness.RunCentralizedDouble(o...)
	}
	return harness.RunDistributedDouble(o...)
}

// Fig4 regenerates Figure 4 (double auction running time vs n).
func Fig4(opts Options) ([]Fig4Point, error) {
	opts = opts.withDefaults()
	ns := Fig4Ns(opts.Quick)
	// The first deployment in a process pays its warm-up (heap growth,
	// fresh goroutine stacks): several milliseconds that would land on the
	// first point's centralized column, unmeasured here.
	if _, err := fig4Run(opts, 0, ns[0], 0); err != nil {
		return nil, fmt.Errorf("fig4 warm-up: %w", err)
	}
	points := make([]Fig4Point, 0, len(ns))
	for _, n := range ns {
		pt := Fig4Point{N: n}
		cols := []*time.Duration{&pt.Centralized, &pt.K1, &pt.K2, &pt.K3}
		for s := range fig4Series {
			var stats metrics.DurationStats
			for r := 0; r < opts.Rounds; r++ {
				res, err := fig4Run(opts, s, n, r)
				if err != nil {
					return nil, fmt.Errorf("fig4 n=%d m=%d k=%d: %w", n, fig4Series[s].m, fig4Series[s].k, err)
				}
				stats.Add(res.Duration)
			}
			*cols[s] = stats.Mean()
		}
		points = append(points, pt)
	}
	return points, nil
}

// Fig5Point is one x-position of Figure 5.
type Fig5Point struct {
	N  int
	P1 time.Duration // centralized serial
	P2 time.Duration // m=8, k=3
	P4 time.Duration // m=8, k=1
}

// Fig5Ns returns the user counts swept by Figure 5. The quick sweep starts
// above the distribution crossover (~n≈40 under the default models, where
// parallel compute savings overtake the coordination overhead), mirroring
// the full sweep's upper half.
func Fig5Ns(quick bool) []int {
	if quick {
		return []int{30, 60}
	}
	return []int{25, 50, 75, 100, 125}
}

// Fig5ModelDelay is the modeled per-solve compute time for n users: the
// quadratic growth (scaled down from the paper's n⁹-flavoured bound so runs
// terminate) reproduces the sharp super-linear rise of Figure 5. One full
// auction performs n+1 solves, so the serial curve grows ~n³.
func Fig5ModelDelay(n int) time.Duration {
	return time.Duration(n*n) * time.Microsecond
}

// fig5Series are Figure 5's curves, in Fig5Point's column order: the
// centralized serial auctioneer, then k = 3 (p = 2) and k = 1 (p = 4).
var fig5Series = []struct {
	k    int
	cent bool
}{{0, true}, {3, false}, {1, false}}

// fig5Run deploys repetition r of series s at n users.
func fig5Run(opts Options, s, n, r int) (harness.Result, error) {
	o := []harness.Option{
		harness.WithProviders(8), harness.WithUsers(n), harness.WithK(fig5Series[s].k),
		harness.WithLatency(opts.Latency),
		harness.WithSeed(opts.BaseSeed + uint64(r)*7919),
		harness.WithInvEpsilon(5),
		harness.WithIterFactor(1),
		harness.WithModelDelay(Fig5ModelDelay(n)),
		harness.WithTimeout(10 * time.Minute),
	}
	if fig5Series[s].cent {
		return harness.RunCentralizedStandard(o...)
	}
	return harness.RunDistributedStandard(o...)
}

// Fig5 regenerates Figure 5 (standard auction running time vs n).
func Fig5(opts Options) ([]Fig5Point, error) {
	opts = opts.withDefaults()
	ns := Fig5Ns(opts.Quick)
	// One unmeasured deployment takes the process warm-up, as in Fig4.
	if _, err := fig5Run(opts, 0, ns[0], 0); err != nil {
		return nil, fmt.Errorf("fig5 warm-up: %w", err)
	}
	points := make([]Fig5Point, 0, len(ns))
	for _, n := range ns {
		pt := Fig5Point{N: n}
		cols := []*time.Duration{&pt.P1, &pt.P2, &pt.P4}
		for s := range fig5Series {
			var stats metrics.DurationStats
			for r := 0; r < opts.Rounds; r++ {
				res, err := fig5Run(opts, s, n, r)
				if err != nil {
					return nil, fmt.Errorf("fig5 n=%d k=%d: %w", n, fig5Series[s].k, err)
				}
				stats.Add(res.Duration)
			}
			*cols[s] = stats.Mean()
		}
		points = append(points, pt)
	}
	return points, nil
}

// WriteFig4 renders Figure 4 as an aligned table.
func WriteFig4(w io.Writer, points []Fig4Point) error {
	rows := make([]metrics.Row, 0, len(points))
	for _, p := range points {
		rows = append(rows, metrics.Row{
			Label: fmt.Sprintf("%d", p.N),
			Cols: []string{
				fmtDur(p.Centralized), fmtDur(p.K1), fmtDur(p.K2), fmtDur(p.K3),
			},
		})
	}
	header := metrics.Row{Label: "n", Cols: []string{"centralized(m=8)", "k=1(m=3)", "k=2(m=5)", "k=3(m=8)"}}
	_, err := io.WriteString(w, metrics.Table(header, rows))
	return err
}

// WriteFig5 renders Figure 5 as an aligned table.
func WriteFig5(w io.Writer, points []Fig5Point) error {
	rows := make([]metrics.Row, 0, len(points))
	for _, p := range points {
		rows = append(rows, metrics.Row{
			Label: fmt.Sprintf("%d", p.N),
			Cols:  []string{fmtDur(p.P1), fmtDur(p.P2), fmtDur(p.P4)},
		})
	}
	header := metrics.Row{Label: "n", Cols: []string{"p=1(centralized)", "p=2(k=3)", "p=4(k=1)"}}
	_, err := io.WriteString(w, metrics.Table(header, rows))
	return err
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.4fs", d.Seconds())
}
