// Benchmarks that nothing under bench/ or cmd/benchfig measures: the
// allocation gate CI runs, and ablations of the framework's building
// blocks. The paper's figures are `go run ./cmd/benchfig -fig 4|5`; the
// workloads and per-layer probes are `bash bench/run.sh` (bench/README.md).
//
//	go test -run '^$' -bench 'BenchmarkSteadyStateAllocs$' -benchtime 20x .  # CI's gate
//	go test -run '^$' -bench . -benchmem .                                   # everything
package distauction_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distauction/internal/consensus"
	"distauction/internal/figures"
	"distauction/internal/harness"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/transport"
	"distauction/internal/wire"
	"distauction/internal/workload"
)

// reportRound registers one round's duration as the benchmark metric.
func reportRound(b *testing.B, run func(seed uint64) (harness.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPeers attaches m provider peers to a zero-latency hub.
func benchPeers(b *testing.B, m int) []*proto.Peer {
	b.Helper()
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	b.Cleanup(func() { hub.Close() })
	ids := make([]wire.NodeID, m)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	peers := make([]*proto.Peer, m)
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			b.Fatal(err)
		}
		peers[i] = proto.NewPeer(conn, ids)
		b.Cleanup(func(p *proto.Peer) func() { return func() { p.Close() } }(peers[i]))
	}
	return peers
}

// BenchmarkBidAgreementFallback measures the digest-mismatch fallback: one
// provider disputes one slot every round, so each round pays the extra
// full-vector exchange on top of the digest agreement. Compare with
// bench's consensus.agree_small and consensus.agree_wide probes (unanimous,
// fast path) to see what a disputed round costs.
func BenchmarkBidAgreementFallback(b *testing.B) {
	for _, m := range []int{3, 8} {
		for _, n := range []int{100, 1000} {
			m, n := m, n
			b.Run(fmt.Sprintf("m=%d/n=%d", m, n), func(b *testing.B) {
				peers := benchPeers(b, m)
				inst := workload.NewDoubleAuction(1, n, m)
				perPeer := make([][][]byte, m)
				for j := range perPeer {
					inputs := make([][]byte, n)
					for i, u := range inst.Users {
						inputs[i] = u.Encode()
					}
					if j == m-1 {
						inputs[0] = []byte("disputed") // forces the fallback
					}
					perPeer[j] = inputs
				}
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round := uint64(i + 1)
					var wg sync.WaitGroup
					errs := make([]error, m)
					for j, p := range peers {
						wg.Add(1)
						go func(j int, p *proto.Peer) {
							defer wg.Done()
							_, errs[j] = consensus.Propose(ctx, p, round, 0, perPeer[j])
						}(j, p)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
					for _, p := range peers {
						p.EndRound(round)
					}
				}
			})
		}
	}
}

// BenchmarkPeerRoutingContention exercises the striped router the way a
// pipelined session does: `depth` concurrent rounds continuously broadcast
// and gather over the same peers. Before the per-round stripes, every
// message serialised on one peer-wide mutex and one delivery goroutine.
func BenchmarkPeerRoutingContention(b *testing.B) {
	const m = 3
	for _, depth := range []int{1, 4, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			peers := benchPeers(b, m)
			payload := make([]byte, 64)
			ctx := context.Background()
			b.ResetTimer()
			base := uint64(1)
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for d := 0; d < depth; d++ {
					round := base + uint64(d)
					for _, p := range peers {
						wg.Add(1)
						go func(p *proto.Peer, round uint64) {
							defer wg.Done()
							tag := wire.Tag{Round: round, Block: wire.BlockTask, Instance: 0, Step: 1}
							if err := p.BroadcastProviders(tag, payload); err != nil {
								b.Error(err)
								return
							}
							if _, err := p.GatherAppend(ctx, tag, p.Providers(), nil); err != nil {
								b.Error(err)
							}
						}(p, round)
					}
				}
				wg.Wait()
				for d := 0; d < depth; d++ {
					for _, p := range peers {
						p.EndRound(base + uint64(d))
					}
				}
				base += uint64(depth)
			}
		})
	}
}

// BenchmarkFullRoundZeroLatency isolates protocol CPU cost: a complete
// distributed double-auction round with no link delay at all.
func BenchmarkFullRoundZeroLatency(b *testing.B) {
	reportRound(b, func(seed uint64) (harness.Result, error) {
		return harness.RunDistributedDouble(
			harness.WithProviders(3), harness.WithUsers(50), harness.WithK(1),
			harness.WithSeed(seed), harness.WithBidWindow(5*time.Second))
	})
}

// BenchmarkSessionThroughput measures multi-round rounds/sec over the
// session engine on the Hub transport: one deployment, 100 pipelined
// double-auction rounds per iteration, bidders running ahead of the
// pipeline. It is the baseline for future scaling PRs; the residual-state
// check guards the no-monotonic-growth property (per-round protocol state
// is reclaimed as rounds complete).
func BenchmarkSessionThroughput(b *testing.B) {
	const rounds = 100
	for _, cfgCase := range []struct {
		name  string
		m, n  int
		depth int
	}{
		{"m=3/n=10/depth=1", 3, 10, 1},
		{"m=3/n=10/depth=4", 3, 10, 4},
		{"m=5/n=20/depth=4", 5, 20, 4},
	} {
		cfgCase := cfgCase
		b.Run(cfgCase.name, func(b *testing.B) {
			var totalRounds int
			var totalTime time.Duration
			for i := 0; i < b.N; i++ {
				res, err := harness.RunSessionDouble(rounds,
					harness.WithProviders(cfgCase.m), harness.WithUsers(cfgCase.n), harness.WithK(1),
					harness.WithSeed(uint64(i+1)),
					harness.WithBidWindow(5*time.Second),
					harness.WithPipelineDepth(cfgCase.depth),
				)
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted != rounds {
					b.Fatalf("accepted %d of %d rounds", res.Accepted, rounds)
				}
				if res.ResidualMsgs != 0 || res.ResidualRounds != 0 {
					b.Fatalf("protocol state grew: %d msgs, %d rounds left after %d rounds",
						res.ResidualMsgs, res.ResidualRounds, rounds)
				}
				totalRounds += res.Rounds
				totalTime += res.Duration
			}
			b.ReportMetric(float64(totalRounds)/totalTime.Seconds(), "rounds/s")
		})
	}
}

// BenchmarkFederationThroughput measures aggregate rounds/s of the sharded
// federation as a function of the shard count: 64 double auctions
// partitioned over S committees of 3 providers each (disjoint fleets, 10
// bidders joined to every auction through one federated attachment each)
// under the community-network latency model. The 1-shard point is the
// unsharded 64-auction market — the baseline — so the shards axis isolates
// what partitioning the catalog buys. On a single-core host protocol CPU does not shrink with
// sharding, so this curve mostly reflects past-saturation congestion
// relief; see EXPERIMENTS.md for the multicore argument.
func BenchmarkFederationThroughput(b *testing.B) {
	const auctions, rounds = 64, 40
	lat := transport.CommunityNetModel()
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d/auctions=%d/m=3/n=10", shards, auctions), func(b *testing.B) {
			var totalRounds int
			var totalTime time.Duration
			for i := 0; i < b.N; i++ {
				res, err := harness.RunMarket(shards, auctions, rounds,
					harness.WithProviders(3), harness.WithUsers(10), harness.WithK(1),
					harness.WithSeed(uint64(i+1)), harness.WithLatency(lat),
					harness.WithBidWindow(10*time.Second),
					harness.WithPipelineDepth(4),
				)
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted != int64(auctions*rounds) {
					b.Fatalf("accepted %d of %d rounds", res.Accepted, auctions*rounds)
				}
				if res.BidsDropped != 0 {
					b.Fatalf("admission dropped %d bids; the workload degenerated", res.BidsDropped)
				}
				if res.ParkedDropped != 0 {
					b.Fatalf("mux dropped %d parked envelopes", res.ParkedDropped)
				}
				if res.ResidualMsgs != 0 || res.ResidualRounds != 0 {
					b.Fatalf("protocol state grew: %d msgs, %d rounds left",
						res.ResidualMsgs, res.ResidualRounds)
				}
				if len(res.PerShard) != shards {
					b.Fatalf("shard rollup has %d entries, want %d", len(res.PerShard), shards)
				}
				for _, ss := range res.PerShard {
					if !ss.Healthy() || ss.Saturation() != 0 {
						b.Fatalf("shard %d unhealthy: %+v", ss.Shard, ss)
					}
				}
				totalRounds += int(res.Rounds)
				totalTime += res.Duration
			}
			b.ReportMetric(float64(totalRounds)/totalTime.Seconds(), "rounds/s")
		})
	}
}

// BenchmarkSteadyStateAllocs measures the steady-state memory discipline of
// the pipelined market: allocations, heap bytes, and GC pause time per
// round, plus net goroutine growth, across a 1000-round 4-auction run over
// the zero-latency hub (protocol cost only — no idle link time to hide
// allocation churn behind). Deployment and teardown are inside the window,
// which 4000 rounds dilute to noise; the steady state dominates. CI's
// "Allocation regression" step holds allocs/round to the budget its comment
// derives: what this benchmark reads on the tree that set it, plus a stated
// margin.
//
// The trace hooks are compiled into every phase this run exercises; with
// tracing off (the default here) they must add zero allocations — the CI
// budget not moving across the observability PR is the proof.
func BenchmarkSteadyStateAllocs(b *testing.B) { steadyStateAllocs(b) }

// BenchmarkSteadyStateAllocsTraced is the same run with tracing enabled:
// every span lands in the rings and phase histograms. Events are recorded
// by value into fixed buffers, so the per-round allocation count should
// stay at the untraced budget — compare the two allocs/round figures to
// see the enabled-path cost.
func BenchmarkSteadyStateAllocsTraced(b *testing.B) {
	trace.SetEnabled(true)
	defer trace.Reset()
	steadyStateAllocs(b)
}

func steadyStateAllocs(b *testing.B) {
	b.Helper()
	const auctions, rounds = 4, 1000
	var allocs, bytes, pauses, growth, total float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		gBefore := runtime.NumGoroutine()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := harness.RunMarket(1, auctions, rounds,
			harness.WithProviders(3), harness.WithUsers(10), harness.WithK(1),
			harness.WithSeed(uint64(i+1)),
			harness.WithBidWindow(10*time.Second),
			harness.WithPipelineDepth(4),
		)
		if err != nil {
			b.Fatal(err)
		}
		if res.Accepted != auctions*rounds {
			b.Fatalf("accepted %d of %d rounds", res.Accepted, auctions*rounds)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		// Teardown unwinds asynchronously at the margins; give departing
		// goroutines a moment before declaring growth.
		gAfter := runtime.NumGoroutine()
		for wait := 0; gAfter > gBefore && wait < 200; wait++ {
			time.Sleep(5 * time.Millisecond)
			gAfter = runtime.NumGoroutine()
		}
		allocs += float64(after.Mallocs - before.Mallocs)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
		pauses += float64(after.PauseTotalNs - before.PauseTotalNs)
		growth += float64(gAfter - gBefore)
		total += float64(res.Rounds)
	}
	b.ReportMetric(allocs/total, "allocs/round")
	b.ReportMetric(bytes/total, "B/round")
	b.ReportMetric(pauses/total, "gcpause-ns/round")
	b.ReportMetric(growth/float64(b.N), "goroutine-growth")
}

// BenchmarkReplicatedVsParallel ablates the standard auction's task
// decomposition: the same auction executed replicated (every provider runs
// everything — full resilience, no speedup) vs decomposed (k=1, p=4).
func BenchmarkReplicatedVsParallel(b *testing.B) {
	const n = 40
	lat := transport.CommunityNetModel()
	delay := figures.Fig5ModelDelay(n)
	b.Run("replicated", func(b *testing.B) {
		reportRound(b, func(seed uint64) (harness.Result, error) {
			return harness.RunDistributedStandard(
				harness.WithProviders(8), harness.WithUsers(n), harness.WithK(1),
				harness.WithSeed(seed), harness.WithLatency(lat),
				harness.WithInvEpsilon(5), harness.WithModelDelay(delay),
				harness.WithReplicated())
		})
	})
	b.Run("parallel", func(b *testing.B) {
		reportRound(b, func(seed uint64) (harness.Result, error) {
			return harness.RunDistributedStandard(
				harness.WithProviders(8), harness.WithUsers(n), harness.WithK(1),
				harness.WithSeed(seed), harness.WithLatency(lat),
				harness.WithInvEpsilon(5), harness.WithModelDelay(delay))
		})
	})
}
