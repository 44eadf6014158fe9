// Command marketd runs the marketplace layer: many named auctions
// multiplexed over one shared transport attachment per node.
//
// Two modes:
//
//   - Hub demo (-hub): a self-contained in-process marketplace — m
//     provider markets, the named auctions, n bidders joined to every
//     auction — runs -rounds rounds per auction over the in-memory Hub,
//     prints the aggregate market statistics and exits. This is the
//     quickest way to see the layer work (and what CI smoke-tests):
//
//     marketd -hub -auctions alpha,beta -rounds 3
//
//   - TCP daemon (default): one provider's Market over real sockets, the
//     marketplace sibling of gatewayd. All providers run it with the same
//     deployment facts; bidders join by auction name from their own
//     processes:
//
//     marketd -id 1 -listen :7001 \
//     -providers '1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003' \
//     -users '100,101' -k 1 -auctions alpha,beta \
//     -cost 1.5 -capacity 10 -rounds 10 -secret communitynet
//
// Auctions are comma-separated names, each optionally pinning a wire lane
// as name:lane (lanes otherwise derive deterministically from the name). In
// hub mode the lane is local to the auction's shard, at most
// federation.MaxLocalLane.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"distauction/internal/auction"
	"distauction/internal/cliutil"
	"distauction/internal/core"
	"distauction/internal/federation"
	"distauction/internal/fixed"
	"distauction/internal/harness"
	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/trace"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

func main() {
	hubMode := flag.Bool("hub", false, "run a self-contained in-memory marketplace demo and exit")
	auctionsFlag := flag.String("auctions", "alpha,beta", "auction names, comma separated (name or name:lane)")
	rounds := flag.Uint64("rounds", 3, "rounds per auction (0 = until interrupted; hub mode requires > 0)")
	k := flag.Int("k", 1, "coalition bound")
	pipeline := flag.Int("pipeline", 2, "rounds in flight per auction")
	bidWindow := flag.Duration("bid-window", 5*time.Second, "bid collection window")
	roundTimeout := flag.Duration("round-timeout", 2*time.Minute, "per-round deadline")

	// Hub demo knobs.
	m := flag.Int("m", 3, "hub mode: number of providers (per shard when -shards > 1)")
	n := flag.Int("n", 4, "hub mode: number of bidders (joined to every auction)")
	seed := flag.Uint64("seed", 1, "hub mode: workload seed")
	shards := flag.Int("shards", 1, "hub mode: partition the catalog over this many provider committees")
	chaos := flag.Bool("chaos", false, "hub mode: inject transport faults (frame drops + periodic conn kills) under the resilience layer")
	chaosDrop := flag.Float64("chaos-drop", 0.01, "chaos: per-frame drop probability on every link")
	chaosKill := flag.Duration("chaos-kill", 2*time.Second, "chaos: kill one node's connections at this interval, round-robin (0 = never)")

	// TCP daemon knobs.
	id := flag.Uint("id", 0, "tcp mode: this provider's node id")
	listen := flag.String("listen", ":0", "tcp mode: listen address")
	providersFlag := flag.String("providers", "", "tcp mode: provider set, id=host:port comma separated")
	usersFlag := flag.String("users", "", "tcp mode: user bidder ids, comma separated")
	cost := flag.String("cost", "1", "tcp mode: own unit cost (double auction)")
	capacity := flag.String("capacity", "10", "tcp mode: own capacity (double auction)")
	secret := flag.String("secret", "", "tcp mode: shared master secret for HMAC keys")

	// Runtime observability knobs (both modes).
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	statsEvery := flag.Duration("runtime-stats", 0, "print a runtime stats line (heap, goroutines, GC) at this interval (0 = off)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and /debug/trace on this address (empty = off)")
	traceOn := flag.Bool("trace", true, "record round-pipeline spans and the flight recorder")
	slowRound := flag.Duration("slow-round", 0, "flight-dump rounds slower than this (0 = aborts only)")
	flag.Parse()

	startDiagnostics(*pprofAddr, *statsEvery)
	trace.SetEnabled(*traceOn)
	trace.SetSlowRound(*slowRound)

	specs, err := parseAuctions(*auctionsFlag)
	switch {
	case err != nil:
	case *chaos && !*hubMode:
		err = fmt.Errorf("-chaos requires -hub (TCP deployments get real faults for free)")
	case *hubMode:
		lat := transport.CommunityNetModel()
		opts := []harness.Option{
			harness.WithProviders(*m), harness.WithUsers(*n), harness.WithK(*k),
			harness.WithSeed(*seed), harness.WithLatency(lat),
			harness.WithBidWindow(*bidWindow), harness.WithTimeout(*roundTimeout),
			harness.WithPipelineDepth(*pipeline),
		}
		if *chaos {
			opts = append(opts, harness.WithNetwork(func(seed int64) transport.Network {
				return newChaosNet(lat, seed, *chaosDrop, *chaosKill)
			}))
		}
		fmt.Printf("marketd: hub demo — %d auctions over %d shards × %d providers, %d bidders, %d rounds each\n",
			len(specs), *shards, *m, *n, *rounds)
		err = hubRun(specs, *shards, *rounds, *metricsAddr, opts...)
	default:
		err = runTCP(specs, uint32(*id), *listen, *providersFlag, *usersFlag, *k, *pipeline,
			*rounds, *cost, *capacity, *bidWindow, *roundTimeout, *secret, *metricsAddr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "marketd:", err)
		os.Exit(1)
	}
}

// holdForScrape keeps a finished hub demo alive until interrupted when an
// export plane is being served, so scrapers (and the CI smoke) can read the
// final /metrics and /debug/trace of the completed run.
func holdForScrape(metricsAddr string) {
	if metricsAddr == "" {
		return
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	fmt.Println("marketd: run complete; serving metrics until interrupted")
	s := <-sigs
	fmt.Printf("marketd: %v: shutting down\n", s)
}

// startDiagnostics wires the optional runtime observability: a pprof HTTP
// endpoint (profiles pick up the session/taskgraph worker labels) and a
// periodic one-line runtime stats print. Both run for the life of the
// process — marketd exits by returning from main, so neither needs a stop
// path.
func startDiagnostics(pprofAddr string, statsEvery time.Duration) {
	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "marketd: pprof:", err)
			}
		}()
		fmt.Printf("marketd: pprof on http://%s/debug/pprof/\n", pprofAddr)
	}
	if statsEvery > 0 {
		go func() {
			tick := time.NewTicker(statsEvery)
			defer tick.Stop()
			for range tick.C {
				fmt.Fprintln(os.Stderr, "marketd:", metrics.ReadRuntime().String())
			}
		}()
	}
}

// namedLane is one -auctions entry: a name with an optional pinned lane.
type namedLane struct {
	name string
	lane uint32
}

func parseAuctions(s string) ([]namedLane, error) {
	var specs []namedLane
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nl := namedLane{name: part}
		if name, laneStr, ok := strings.Cut(part, ":"); ok {
			lane, err := strconv.ParseUint(laneStr, 10, 32)
			if err != nil || lane == 0 || lane > wire.MaxLane {
				return nil, fmt.Errorf("auction %q: lane must be in [1,%d]", part, wire.MaxLane)
			}
			nl = namedLane{name: name, lane: uint32(lane)}
		}
		specs = append(specs, nl)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no auctions given")
	}
	return specs, nil
}

func sessionOpts(k, pipeline int, rounds uint64, bidWindow, roundTimeout time.Duration, bid auction.ProviderBid) []core.SessionOption {
	opts := []core.SessionOption{
		core.WithK(k),
		core.WithMechanismName("double"),
		core.WithBidWindow(bidWindow),
		core.WithRoundTimeout(roundTimeout),
		core.WithMaxConcurrentRounds(pipeline),
		core.WithProviderBid(bid),
	}
	if rounds > 0 {
		opts = append(opts, core.WithRoundLimit(rounds), core.WithOutcomeBuffer(int(min(rounds, 1024))))
	}
	return opts
}

// chaosNet is the -chaos network stack: the resilience layer over the demo
// hub with frame drops injected, plus a round-robin connection killer over
// whatever nodes attach — so the demo exercises the heartbeat/ARQ
// machinery instead of aborting. Close stops the killer and closes the
// whole stack.
type chaosNet struct {
	transport.Network
	mu      sync.Mutex
	victims []wire.NodeID
	done    chan struct{}
	stop    sync.Once
}

func newChaosNet(lat transport.LatencyModel, seed int64, drop float64, kill time.Duration) *chaosNet {
	hub := transport.NewHub(lat, seed)
	hub.SetFaults(transport.Faults{Drop: drop})
	c := &chaosNet{Network: transport.Resilient(hub, transport.ResilientConfig{}), done: make(chan struct{})}
	if kill > 0 {
		go func() {
			tick := time.NewTicker(kill)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-c.done:
					return
				case <-tick.C:
					c.mu.Lock()
					if len(c.victims) > 0 {
						hub.Kill(c.victims[i%len(c.victims)])
					}
					c.mu.Unlock()
				}
			}
		}()
	}
	fmt.Printf("marketd: chaos on — %.2g%% frame drop, conn-kill every %v\n", drop*100, kill)
	return c
}

func (c *chaosNet) Attach(id wire.NodeID) (transport.Conn, error) {
	c.mu.Lock()
	c.victims = append(c.victims, id)
	c.mu.Unlock()
	return c.Network.Attach(id)
}

func (c *chaosNet) Close() error {
	c.stop.Do(func() { close(c.done) })
	return c.Network.Close()
}

// hubRun is the self-contained demo for any -shards >= 1: the harness's
// market deployment — the catalog over `shards` disjoint committees of m
// providers behind one federation, bidders joined through one attachment
// apiece — in one process over the in-memory Hub with the
// community-network latency model, driven by the harness's closed loop.
func hubRun(specs []namedLane, shards int, rounds uint64, metricsAddr string, opts ...harness.Option) error {
	if rounds == 0 {
		return fmt.Errorf("hub mode needs -rounds > 0")
	}
	auctions := make([]federation.AuctionSpec, len(specs))
	for j, nl := range specs {
		auctions[j] = federation.AuctionSpec{Name: nl.name, LocalLane: nl.lane} // 0 derives; placement is routed
	}
	dep, err := harness.OpenMarket(shards, auctions, int(rounds), opts...)
	if err != nil {
		return err
	}
	defer dep.Close()
	if metricsAddr != "" {
		stop, err := startExporter(metricsAddr, func() statsTree { return dep.Stats() })
		if err != nil {
			return err
		}
		defer stop()
	}

	res, err := dep.Run()
	if err != nil {
		return err
	}
	printStats(res.Snapshot)
	printFlightDumps()
	if res.Accepted != res.Rounds {
		return fmt.Errorf("%d of %d rounds ended ⊥", res.Rounds-res.Accepted, res.Rounds)
	}
	holdForScrape(metricsAddr)
	return nil
}

// printStats renders the stats tree as one table: a row per scope, the root
// last. The attachment columns stay blank for scopes that own no attachment.
func printStats(tree statsTree) {
	scopes := tree.Scopes()
	rows := make([]metrics.Row, 0, len(scopes))
	for _, s := range append(scopes[1:], scopes[0]) {
		c := s.Counters
		health := "ok"
		if !c.Healthy() {
			health = "DEGRADED"
		}
		cols := []string{
			fmt.Sprintf("%d", c.Rounds),
			fmt.Sprintf("%d", c.Accepted),
			fmt.Sprintf("%d", c.Aborted),
			fmt.Sprintf("%.1f", c.RoundsPerSec),
			fmt.Sprintf("%d", c.BidsAdmitted),
			fmt.Sprintf("%d", c.BidsDropped),
			fmt.Sprintf("%d", c.QueueDepth),
			fmt.Sprintf("%.2f", c.Saturation()),
			health,
		}
		if at := s.Attachment; at != nil {
			cols = append(cols, fmt.Sprintf("%d", at.FramesSent), fmt.Sprintf("%.1f", at.BatchOccupancy()), fmt.Sprintf("%d", at.ParkedDropped))
		}
		rows = append(rows, metrics.Row{Label: s.Label, Cols: cols})
	}
	fmt.Print(metrics.Table(
		metrics.Row{Label: "scope", Cols: []string{"rounds", "ok", "⊥", "r/s", "admitted", "dropped", "queue", "sat", "health", "frames", "env/frame", "parked-dropped"}},
		rows))
}

// runTCP is one provider's market daemon over real sockets.
func runTCP(specs []namedLane, id uint32, listen, providersFlag, usersFlag string,
	k, pipeline int, rounds uint64, cost, capacity string,
	bidWindow, roundTimeout time.Duration, secret, metricsAddr string) error {

	peerAddrs, providerIDs, err := cliutil.ParseAddrMap(providersFlag)
	if err != nil {
		return fmt.Errorf("providers: %w", err)
	}
	userIDs, err := cliutil.ParseIDList(usersFlag)
	if err != nil {
		return fmt.Errorf("users: %w", err)
	}
	c, err := fixed.Parse(cost)
	if err != nil {
		return fmt.Errorf("cost: %w", err)
	}
	cap_, err := fixed.Parse(capacity)
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	self := wire.NodeID(id)
	network, conn, err := cliutil.DialTCP(self, listen, peerAddrs,
		append(append([]wire.NodeID{}, providerIDs...), userIDs...), secret)
	if err != nil {
		return err
	}
	defer network.Close()

	mk, err := market.Open(conn, providerIDs,
		market.WithOnOutcome(func(name string, out core.RoundOutcome) {
			if out.Err == nil {
				fmt.Printf("%s round %d: accepted, paid=%v\n", name, out.Round, out.Outcome.Pay.TotalPaid())
			} else {
				fmt.Printf("%s round %d: ⊥: %v\n", name, out.Round, out.Err)
			}
		}))
	if err != nil {
		return err
	}
	defer mk.Close()
	bid := auction.ProviderBid{Cost: c, Capacity: cap_}
	for _, nl := range specs {
		_, err := mk.OpenAuction(market.AuctionSpec{
			Name:    nl.name,
			Lane:    nl.lane,
			Users:   userIDs,
			Options: sessionOpts(k, pipeline, rounds, bidWindow, roundTimeout, bid),
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("marketd: provider %d serving %d auctions (m=%d, k=%d): %s\n",
		id, len(specs), len(providerIDs), k, strings.Join(names(specs), ", "))
	if metricsAddr != "" {
		stop, err := startExporter(metricsAddr, func() statsTree { return mk.Stats() })
		if err != nil {
			return err
		}
		defer stop()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if rounds > 0 {
		// Finite run: wait until every auction's rounds completed (or an
		// interrupt), then print the stats table.
		want := int64(len(specs)) * int64(rounds)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for mk.Stats().Rounds < want {
			select {
			case s := <-sigs:
				return shutdownMarket(mk, specs, s, roundTimeout)
			case <-tick.C:
			}
		}
		printStats(mk.Stats())
		printFlightDumps()
		return nil
	}
	return shutdownMarket(mk, specs, <-sigs, roundTimeout)
}

// shutdownMarket is the graceful SIGINT/SIGTERM path: stop admitting, let
// every auction's in-flight rounds complete (bounded by the round timeout),
// then report the final stats and whatever the flight recorder holds. The
// deferred Close in runTCP tears the transport down afterwards.
func shutdownMarket(mk *market.Market, specs []namedLane, s os.Signal, roundTimeout time.Duration) error {
	fmt.Printf("marketd: %v: draining %d auction(s)\n", s, len(specs))
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	for _, nl := range specs {
		if err := mk.DrainAuction(ctx, nl.name); err != nil {
			fmt.Printf("marketd: drain %s: %v\n", nl.name, err)
		}
	}
	printStats(mk.Stats())
	printFlightDumps()
	return nil
}

func names(specs []namedLane) []string {
	out := make([]string, len(specs))
	for i, nl := range specs {
		out[i] = nl.name
	}
	return out
}
