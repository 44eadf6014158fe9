package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"distauction/internal/trace"
)

// tracedShare is the length of the traced pass as a share of the whole
// run: 4 s of the 20, which is one pass of a market workload.
const tracedShare = 0.2

// perLayerRun produces the per-layer counters of one workload from an
// untraced and a traced pass over fresh deployments. Process, market and
// load-generator figures come from the untraced pass, phase durations,
// network counters and spans from the traced one, and the ratio of their
// throughputs is the tracing overhead. untraced is the end-to-end
// measurement's pass when the invocation made one; with -trace 1 there is
// none, and a pass as long as the traced one is run for it.
func perLayerRun(w workload, rounds int, bids *bidSet, probes metrics, untraced *pass) (metrics, []*pass, error) {
	tracedRounds := max(20, min(rounds, int(math.Round(float64(rounds*w.passes)*tracedShare))))
	var ran []*pass
	plain := untraced
	if plain == nil {
		var err error
		if plain, err = runPass(w, tracedRounds, bids, false, ""); err != nil {
			return nil, nil, err
		}
		ran = append(ran, plain)
	}
	traced, err := runPass(w, tracedRounds, bids, true, spanFile(w.name))
	if err != nil {
		return nil, nil, err
	}
	ran = append(ran, traced)
	fmt.Printf("# %s traced pass: %d lanes x %d rounds, %d spans in %s\n",
		w.name, w.auctions, tracedRounds, traced.spansWritten, spanFile(w.name))

	total := float64(w.auctions * traced.rounds)
	var out metrics
	out.add("transport.msgs_per_round", float64(traced.net.MsgsSent)/total, "count")
	out.add("transport.bytes_per_round", float64(traced.net.BytesSent)/total, "B")
	out.add("transport.frames_per_round", float64(traced.frames)/total, "count")
	out.add("transport.envs_per_frame", ratio(float64(traced.envs), float64(traced.frames)), "count")
	out.add("transport.resends_per_round", float64(traced.link.Resends)/total, "count")
	out.add("transport.overflow_per_round", float64(traced.link.Overflow)/total, "count")
	out.add("transport.heartbeats_per_s", float64(traced.link.Heartbeats)/traced.wall.Seconds(), "1/s")
	out.add("proto.residual_msgs", float64(traced.residualMsgs), "count")

	for _, ph := range []trace.Phase{trace.PhaseRound, trace.PhaseBidCollect, trace.PhaseAgreeCommit,
		trace.PhaseAgreeEcho, trace.PhaseAgreeReveal, trace.PhaseTask} {
		out.add("core.phase."+ph.String()+"_ms", ms(traced.phases[ph]), "ms")
	}
	out.add("core.provider_round_ms", ms(durationsPercentile(plain.providerRound, 50)), "ms")
	out.add("core.outcome_delivery_ms", ms(durationsPercentile(plain.delivery, 50)), "ms")

	out.add("market.open_auction_us", us(durationsPercentile(plain.openAuction, 50)), "us")
	out.add("market.join_lane_us", us(durationsPercentile(plain.joinLane, 50)), "us")
	out.add("market.bids_dropped", float64(plain.bidsDropped+traced.bidsDropped), "count")
	out.add("market.parked_dropped", float64(plain.parkedDropped+traced.parkedDropped), "count")

	total = float64(w.auctions * plain.rounds)
	cpuMs := ms(plain.cpu) / total
	out.add("process.cpu_ms_per_round", cpuMs, "ms")
	out.add("process.allocs_per_round", float64(plain.mallocs)/total, "count")
	out.add("process.alloc_kb_per_round", float64(plain.allocBytes)/1024/total, "KiB")
	out.add("process.gc_pause_us_per_round", us(plain.gcPause)/total, "us")
	out.add("process.heap_inuse_mb", float64(plain.heapInuse)/(1<<20), "MiB")
	out.add("process.goroutines", float64(plain.goroutines), "count")

	var submits, lags []time.Duration
	late, paced := 0, 0
	for _, lt := range plain.lanes {
		submits = append(submits, lt.submit...)
		lags = append(lags, lt.lag...)
		if !w.open {
			continue
		}
		for r := warmupRounds(plain.rounds); r < plain.rounds; r++ {
			paced++
			if lt.failed[r] > 0 || ms(lt.end[r].Sub(lt.start[r])) > w.limitMs {
				late++
			}
		}
	}
	out.add("loadgen.submit_us", us(durationsPercentile(submits, 50)), "us")
	out.add("loadgen.lag_p99_ms", ms(durationsPercentile(lags, 99)), "ms")
	out.add("loadgen.late_share", ratio(float64(late), float64(paced)), "share")
	out.add("loadgen.build_ms", ms(plain.build), "ms")
	out.add("loadgen.teardown_ms", ms(plain.teardown), "ms")
	out.add("loadgen.trace_overhead", ratio(traced.e2e.roundsPerS, plain.e2e.roundsPerS), "ratio")

	unattributed := printBudget(w, probes, out, cpuMs)
	out.add("process.unattributed_cpu_share", unattributed, "share")

	return out, ran, nil
}

// residualLimit is how many buffered protocol messages a drained
// deployment may hold whatever the number of rounds: at most the last
// pipeline's worth per provider session.
func residualLimit(w workload) int { return w.auctions * w.m * w.depth * (w.m + w.n) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printBudget prints the round budget table: for each layer on the
// message path and for the mechanism, the probe's unit cost times the
// calls per round the traced pass counted, against the CPU time per round
// the process actually spent. It returns the share no row accounts for:
// the engine and agreement logic above routing, timers, scheduling,
// garbage collection, and the load generator and oracle themselves
// (loadgen.submit_us is wall time on a saturated host, not CPU, so it has
// no row).
func printBudget(w workload, probes, counters metrics, cpuMs float64) float64 {
	type row struct {
		layer, cost string
		unitNs      float64
		calls       float64
	}
	msgs := counters.get("transport.msgs_per_round")
	frames := counters.get("transport.frames_per_round")
	hub := probes.get("transport.hub_send_ns")
	var rows []row
	if w.market {
		rows = append(rows, row{"transport.coalescer", "coalescer_send_ns per provider envelope", probes.get("transport.coalescer_send_ns"),
			frames * counters.get("transport.envs_per_frame")})
	}
	if w.tcp {
		wire32 := probes.get("wire.superframe_encode_ns") + probes.get("wire.superframe_decode_ns")
		mac := probes.get("auth.batch_sign_ns") + probes.get("auth.batch_verify_ns")
		rows = append(rows,
			row{"wire", "superframe encode+decode /32 per message", wire32 / 32, msgs},
			row{"auth", "batch sign+verify per frame", mac, frames},
			row{"transport.tcp", "tcp_frame_us less wire and auth, per frame", math.Max(probes.get("transport.tcp_frame_us")*1e3-wire32-mac, 0), frames},
			row{"transport.resilient", "resilient_send_ns less hub_send_ns per message", math.Max(probes.get("transport.resilient_send_ns")-hub, 0), msgs})
	} else {
		rows = append(rows, row{"transport.hub", "hub_send_ns per frame", hub, frames})
	}
	rows = append(rows, row{"proto", "route_ns less hub_send_ns per message", math.Max(probes.get("proto.route_ns")-hub, 0), msgs})
	switch {
	case w.mechanism == "standard":
		rows = append(rows,
			row{"mechanism", "standard_solve_us on each of m providers", probes.get("mechanism.standard_solve_us") * 1e3, float64(w.m)},
			row{"mechanism", "vcg_payments_ms, each share computed by k+1 providers", probes.get("mechanism.vcg_payments_ms") * 1e6, float64(w.k + 1)})
	case w.n >= 1000:
		rows = append(rows, row{"mechanism", "double_solve_wide_us on each of m providers", probes.get("mechanism.double_solve_wide_us") * 1e3, float64(w.m)})
	default:
		rows = append(rows, row{"mechanism", "double_solve_small_us on each of m providers", probes.get("mechanism.double_solve_small_us") * 1e3, float64(w.m)})
	}
	fmt.Printf("# round budget, %s: CPU per round %.4f ms on %d cores\n", w.name, cpuMs, runtime.GOMAXPROCS(0))
	fmt.Printf("#   %-20s %-52s %12s %10s %10s %7s\n", "layer", "probe cost", "unit ns", "calls", "ms/round", "share")
	sum := 0.0
	for _, r := range rows {
		cost := r.unitNs * r.calls / 1e6
		sum += cost
		fmt.Printf("#   %-20s %-52s %12.1f %10.2f %10.4f %6.1f%%\n", r.layer, r.cost, r.unitNs, r.calls, cost, 100*ratio(cost, cpuMs))
	}
	unattributed := ratio(cpuMs-sum, cpuMs)
	fmt.Printf("#   %-20s %-52s %12s %10s %10.4f %6.1f%%\n", "unattributed", "engine, agreement, timers, scheduler, GC, oracle", "", "", cpuMs-sum, 100*unattributed)
	// Committee steps are wall time of a whole committee on all cores and
	// contain their own messages, so they are shown for scale, not summed.
	var ref []string
	for _, name := range []string{"consensus.agree_small_us", "consensus.agree_wide_us", "coin.toss_us", "datatransfer.xfer_us", "taskgraph.round_us", "gateway.enforce_us"} {
		ref = append(ref, fmt.Sprintf("%s=%.1f", name, probes.get(name)))
	}
	sort.Strings(ref)
	fmt.Printf("#   not summed (committee wall time, messages included): %v\n", ref)
	return unattributed
}
