package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distauction/internal/auction"
	"distauction/internal/auth"
	"distauction/internal/coin"
	"distauction/internal/consensus"
	"distauction/internal/datatransfer"
	"distauction/internal/fixed"
	"distauction/internal/gateway"
	"distauction/internal/ledger"
	"distauction/internal/mechanism/doubleauction"
	"distauction/internal/mechanism/standardauction"
	"distauction/internal/proto"
	"distauction/internal/taskgraph"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// Probes time each layer's public functions from outside, with inputs
// shaped like the workloads': the envelope is a user bid on a market lane,
// the superframe holds 32 of them, the agreements are the market's
// (m=3, n=10) and Fig. 4's (m=8, n=1000), and so on. Iteration counts are
// fixed; every figure is the median of probeBatches batches.

const probeBatches = 5

// prober runs probes and records each as a span.
type prober struct {
	out metrics
	log *spanLog
}

// timeOp runs batch probeBatches times; each call performs iters
// operations. It returns the median nanoseconds and allocations per
// operation.
func (pr *prober) timeOp(name string, iters int, batch func()) (nsPerOp, allocs float64) {
	start := time.Now()
	var ns, al []float64
	for b := 0; b < probeBatches; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		batch()
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d)/float64(iters))
		al = append(al, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	pr.log.add(name, 0, start, time.Now())
	return median(ns), median(al)
}

func runProbes() (metrics, error) {
	defer watchdog("probes", 10*time.Second).Stop()
	epoch := time.Now()
	pr := &prober{log: &spanLog{workload: "probes", lane: -1, epoch: epoch}}
	for _, f := range []func(*prober) error{
		probeWire, probeAuth, probeTransport, probeTCP, probeProto, probeConsensus,
		probeCoin, probeDataTransfer, probeTaskgraph, probeMechanism, probeGateway,
	} {
		if err := f(pr); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	if _, err := writeSpans(spanFile("probes"), []*spanLog{pr.log}); err != nil {
		return nil, err
	}
	return pr.out, nil
}

var sink atomic.Int64 // keeps probe results live

func bidEnvelope(from, to wire.NodeID, round uint64) wire.Envelope {
	bid := auction.UserBid{Value: fixed.MustFloat(1.1), Demand: fixed.MustFloat(0.6)}
	return wire.Envelope{
		From: from, To: to,
		Tag:     wire.Tag{Round: round, Block: wire.BlockBidSubmit, Instance: wire.JoinLane(3, 0), Step: 1},
		Payload: bid.Encode(),
	}
}

func frameOf(n int) []wire.Envelope {
	envs := make([]wire.Envelope, n)
	for i := range envs {
		envs[i] = bidEnvelope(1, 2, uint64(i+1))
	}
	return envs
}

func probeWire(pr *prober) error {
	env := bidEnvelope(1, 2, 7)
	env.MAC = make([]byte, auth.KeySize)
	raw := env.Encode()
	sf := wire.Superframe{From: 1, To: 2, Envs: frameOf(32), MAC: make([]byte, auth.KeySize)}
	rawSF := sf.Encode()
	const iters = 20000

	d, a1 := pr.timeOp("wire.envelope_encode", iters, func() {
		for i := 0; i < iters; i++ {
			enc := wire.GetEncoder(env.EncodedSize())
			env.EncodeTo(enc)
			sink.Add(int64(enc.Len()))
			wire.PutEncoder(enc)
		}
	})
	pr.out.add("wire.envelope_encode_ns", d, "ns")
	var err error
	d, a2 := pr.timeOp("wire.envelope_decode", iters, func() {
		for i := 0; i < iters; i++ {
			var e wire.Envelope
			if e, err = wire.DecodeEnvelopeView(raw); err != nil {
				return
			}
			sink.Add(int64(e.Tag.Round))
		}
	})
	pr.out.add("wire.envelope_decode_ns", d, "ns")
	d, a3 := pr.timeOp("wire.superframe_encode", iters/10, func() {
		for i := 0; i < iters/10; i++ {
			enc := wire.GetEncoder(sf.EncodedSize())
			sf.EncodeTo(enc)
			sink.Add(int64(enc.Len()))
			wire.PutEncoder(enc)
		}
	})
	pr.out.add("wire.superframe_encode_ns", d, "ns")
	d, a4 := pr.timeOp("wire.superframe_decode", iters/10, func() {
		for i := 0; i < iters/10; i++ {
			var s wire.Superframe
			if s, err = wire.DecodeSuperframeView(rawSF); err != nil {
				return
			}
			sink.Add(int64(len(s.Envs)))
		}
	})
	pr.out.add("wire.superframe_decode_ns", d, "ns")
	// One envelope and one 32-envelope frame, each encoded and decoded.
	pr.out.add("wire.codec_allocs", a1+a2+a3+a4, "allocs/op")
	return err
}

func probeAuth(pr *prober) error {
	secret := []byte("distauction-bench")
	members := []wire.NodeID{1, 2}
	signer := auth.NewRegistryFromMaster(secret, 1, members)
	verifier := auth.NewRegistryFromMaster(secret, 2, members)
	env := bidEnvelope(1, 2, 7)
	const iters = 20000
	var err error

	d, _ := pr.timeOp("auth.sign", iters, func() {
		for i := 0; i < iters; i++ {
			e := env
			if err = signer.Sign(&e); err != nil {
				return
			}
		}
	})
	pr.out.add("auth.sign_ns", d, "ns")
	signed := env
	if err := signer.Sign(&signed); err != nil {
		return err
	}
	d, _ = pr.timeOp("auth.verify", iters, func() {
		for i := 0; i < iters; i++ {
			if err = verifier.Verify(&signed); err != nil {
				return
			}
		}
	})
	pr.out.add("auth.verify_ns", d, "ns")

	sf := wire.Superframe{From: 1, To: 2, Envs: frameOf(32)}
	enc := wire.NewEncoder(sf.EncodedSize())
	sf.SignedBytesTo(enc)
	var sum [auth.KeySize]byte
	d, _ = pr.timeOp("auth.batch_sign", iters/4, func() {
		for i := 0; i < iters/4; i++ {
			if err = signer.SignBatchBytes(2, enc.Buffer(), &sum); err != nil {
				return
			}
		}
	})
	pr.out.add("auth.batch_sign_ns", d, "ns")
	d, _ = pr.timeOp("auth.batch_verify", iters/4, func() {
		for i := 0; i < iters/4; i++ {
			if err = verifier.VerifyBatchBytes(1, enc.Buffer(), sum[:]); err != nil {
				return
			}
		}
	})
	pr.out.add("auth.batch_verify_ns", d, "ns")
	return err
}

// discardConn is a BatchConn that drops everything: what is left under
// it is the coalescer's own cost.
type discardConn struct{ self wire.NodeID }

func (c discardConn) Self() wire.NodeID                 { return c.self }
func (c discardConn) Send(wire.Envelope) error          { return nil }
func (c discardConn) SendBatch(e []wire.Envelope) error { sink.Add(int64(len(e))); return nil }
func (c discardConn) Close() error                      { return nil }
func (c discardConn) Recv(ctx context.Context) (wire.Envelope, error) {
	<-ctx.Done()
	return wire.Envelope{}, ctx.Err()
}

// pair attaches nodes 1 and 2 to net and counts what node 2 receives.
func pair(net transport.Network) (a transport.Conn, received *atomic.Int64, err error) {
	a, err = net.Attach(1)
	if err != nil {
		return nil, nil, err
	}
	b, err := net.Attach(2)
	if err != nil {
		return nil, nil, err
	}
	received = new(atomic.Int64)
	pb, ok := b.(transport.PushBatchConn)
	if !ok {
		return nil, nil, fmt.Errorf("%T cannot push", b)
	}
	pb.SetHandler(func(wire.Envelope) { received.Add(1) })
	pb.SetBatchHandler(func(envs []wire.Envelope) { received.Add(int64(len(envs))) })
	return a, received, nil
}

func waitFor(received *atomic.Int64, want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for received.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("received %d of %d envelopes", received.Load(), want)
		}
		runtime.Gosched()
	}
	return nil
}

func probeTransport(pr *prober) error {
	const iters = 20000
	env := bidEnvelope(1, 2, 7)
	var err error

	// Both figures are send through receive on a zero-latency Hub; their
	// difference is the link layer's sequencing, tracking and ingest.
	for _, c := range []struct {
		name string
		net  func() transport.Network
	}{
		{"transport.hub_send", func() transport.Network { return transport.NewHub(transport.LatencyModel{}, 1) }},
		{"transport.resilient_send", func() transport.Network {
			return transport.Resilient(transport.NewHub(transport.LatencyModel{}, 1), transport.ResilientConfig{})
		}},
	} {
		net := c.net()
		a, received, perr := pair(net)
		if perr != nil {
			net.Close()
			return perr
		}
		var want int64
		d, _ := pr.timeOp(c.name, iters, func() {
			for i := 0; i < iters; i++ {
				if err = a.Send(env); err != nil {
					return
				}
			}
			want += iters
			if err == nil {
				err = waitFor(received, want)
			}
		})
		net.Close()
		if err != nil {
			return err
		}
		pr.out.add(c.name+"_ns", d, "ns")
	}

	co := transport.NewCoalescer(discardConn{self: 1})
	d, _ := pr.timeOp("transport.coalescer_send", iters, func() {
		for i := 0; i < iters; i++ {
			if err = co.Send(env); err != nil {
				return
			}
		}
	})
	pr.out.add("transport.coalescer_send_ns", d, "ns")
	return err
}

func probeTCP(pr *prober) error {
	members := []wire.NodeID{1, 2}
	tn := transport.NewTCPNetwork(transport.TCPNetworkConfig{Members: members, Secret: []byte("distauction-bench")})
	defer tn.Close()
	a, err := tn.Attach(1)
	if err != nil {
		return err
	}
	b, err := tn.Attach(2)
	if err != nil {
		return err
	}
	pa, pb := a.(transport.PushBatchConn), b.(transport.PushBatchConn)
	echoed := make(chan struct{}, 1)
	var received atomic.Int64
	pa.SetHandler(func(wire.Envelope) { echoed <- struct{}{} })
	pb.SetHandler(func(e wire.Envelope) {
		if e.Tag.Step == 2 { // round-trip probe: send it back
			_ = b.Send(wire.Envelope{From: 2, To: 1, Tag: e.Tag, Payload: e.Payload})
			return
		}
		received.Add(1)
	})
	pb.SetBatchHandler(func(envs []wire.Envelope) { received.Add(int64(len(envs))) })

	ping := bidEnvelope(1, 2, 7)
	ping.Tag.Step = 2
	const rtts = 1000
	d, _ := pr.timeOp("transport.tcp_rtt", rtts, func() {
		for i := 0; i < rtts; i++ {
			if err = a.Send(ping); err != nil {
				return
			}
			<-echoed
		}
	})
	if err != nil {
		return err
	}
	pr.out.add("transport.tcp_rtt_us", d/1e3, "us")

	frame := frameOf(32)
	ba := a.(transport.BatchConn)
	const frames = 1000
	var want int64
	d, _ = pr.timeOp("transport.tcp_frame", frames, func() {
		for i := 0; i < frames; i++ {
			if err = ba.SendBatch(frame); err != nil {
				return
			}
		}
		want += frames * int64(len(frame))
		err = waitFor(&received, want)
	})
	pr.out.add("transport.tcp_frame_us", d/1e3, "us")
	return err
}

// peersOn attaches m provider peers to a fresh zero-latency Hub.
func peersOn(m int) ([]*proto.Peer, func()) {
	hub := transport.NewHub(transport.LatencyModel{}, 1)
	ids := make([]wire.NodeID, m)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	peers := make([]*proto.Peer, m)
	for i, id := range ids {
		conn, err := hub.Attach(id)
		if err != nil {
			panic(err) // fresh hub, distinct ids
		}
		peers[i] = proto.NewPeer(conn, ids)
	}
	return peers, func() {
		for _, p := range peers {
			p.Close()
		}
		hub.Close()
	}
}

// eachPeer runs one protocol step on every peer at once, as a committee
// does, ends the round everywhere and returns the first error.
func eachPeer(peers []*proto.Peer, round uint64, step func(i int, p *proto.Peer) error) error {
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = step(i, p)
		}()
	}
	wg.Wait()
	for _, p := range peers {
		p.EndRound(round)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func probeProto(pr *prober) error {
	peers, closeAll := peersOn(2)
	defer closeAll()
	ctx := context.Background()
	payload := make([]byte, 64)
	const iters = 20000
	var round uint64
	var err error
	d, allocs := pr.timeOp("proto.route", iters, func() {
		for i := 0; i < iters; i++ {
			round++
			tag := wire.Tag{Round: round, Block: wire.BlockTask, Step: 1}
			if err = peers[0].Send(2, tag, payload); err != nil {
				return
			}
			if _, err = peers[1].Receive(ctx, tag, 1); err != nil {
				return
			}
			peers[0].EndRound(round)
			peers[1].EndRound(round)
		}
	})
	pr.out.add("proto.route_ns", d, "ns")
	pr.out.add("proto.route_allocs", allocs, "allocs/op")
	return err
}

// bidVector draws one round of n user bids and m provider bids from the
// workloads' own generator.
func bidVector(n, m int) auction.BidVector {
	bs := generateBids(workload{auctions: 1, mechanism: "double", n: n, m: m}, 1, 1)
	return auction.BidVector{Users: bs.users[0][0], Providers: bs.providers[0]}
}

func probeConsensus(pr *prober) error {
	ctx := context.Background()
	for _, c := range []struct {
		name        string
		m, n, iters int
		allocs      bool
	}{
		{"consensus.agree_small", 3, 10, 300, true},
		{"consensus.agree_wide", 8, 1000, 10, false},
	} {
		peers, closeAll := peersOn(c.m)
		inputs := make([][]byte, c.n)
		for i, b := range bidVector(c.n, c.m).Users {
			inputs[i] = b.Encode()
		}
		var round uint64
		var err error
		d, allocs := pr.timeOp(c.name, c.iters, func() {
			for i := 0; i < c.iters && err == nil; i++ {
				round++
				err = eachPeer(peers, round, func(_ int, p *proto.Peer) error {
					_, e := consensus.Propose(ctx, p, round, 0, inputs)
					return e
				})
			}
		})
		closeAll()
		if err != nil {
			return err
		}
		pr.out.add(c.name+"_us", d/1e3, "us")
		if c.allocs {
			pr.out.add("consensus.agree_allocs", allocs, "allocs/op")
		}
	}
	return nil
}

func probeCoin(pr *prober) error {
	peers, closeAll := peersOn(8)
	defer closeAll()
	ctx := context.Background()
	const iters = 100
	var round uint64
	var err error
	d, _ := pr.timeOp("coin.toss", iters, func() {
		for i := 0; i < iters && err == nil; i++ {
			round++
			err = eachPeer(peers, round, func(_ int, p *proto.Peer) error {
				_, e := coin.Toss(ctx, p, round, 0)
				return e
			})
		}
	})
	pr.out.add("coin.toss_us", d/1e3, "us")
	return err
}

func probeDataTransfer(pr *prober) error {
	peers, closeAll := peersOn(8)
	defer closeAll()
	ctx := context.Background()
	sending := []wire.NodeID{1, 2, 3, 4}
	receiving := []wire.NodeID{5, 6, 7, 8}
	payload := make([]byte, 64<<10)
	const iters = 100
	var round uint64
	var err error
	d, _ := pr.timeOp("datatransfer.xfer", iters, func() {
		for i := 0; i < iters && err == nil; i++ {
			round++
			err = eachPeer(peers, round, func(i int, p *proto.Peer) error {
				var in []byte
				if i < len(sending) {
					in = payload
				}
				_, e := datatransfer.Run(ctx, p, round, 0, sending, receiving, in)
				return e
			})
		}
	})
	pr.out.add("datatransfer.xfer_us", d/1e3, "us")
	return err
}

// probeTaskgraph runs the standard auction's plan (allocate on everyone,
// one payments task per group, gather on everyone; m=8, k=1) with empty
// task bodies and no coin, so what is timed is scheduling, the transfers
// between groups and the digest cross-checks.
func probeTaskgraph(pr *prober) error {
	const m, k = 8, 1
	peers, closeAll := peersOn(m)
	defer closeAll()
	providers := peers[0].Providers()
	groups := taskgraph.Groups(providers, k)
	empty := func(context.Context, *taskgraph.TaskContext) ([]byte, error) { return []byte{1}, nil }
	tasks := []taskgraph.Task{{ID: 1, Name: "allocate", Group: providers, Run: empty}}
	deps := []uint32{1}
	for gi, g := range groups {
		id := uint32(2 + gi)
		tasks = append(tasks, taskgraph.Task{ID: id, Name: fmt.Sprintf("payments-%d", gi), Deps: []uint32{1}, Group: g, Run: empty})
		deps = append(deps, id)
	}
	tasks = append(tasks, taskgraph.Task{ID: uint32(2 + len(groups)), Name: "gather", Deps: deps, Group: providers, Run: empty})
	graph, err := taskgraph.New(providers, k, tasks)
	if err != nil {
		return err
	}
	execs := make([]*taskgraph.Executor, m)
	for i, p := range peers {
		execs[i] = taskgraph.NewExecutor(p, graph, 1)
	}
	defer func() {
		for _, ex := range execs {
			ex.Close()
		}
	}()
	ctx := context.Background()
	const iters = 100
	var round uint64
	d, allocs := pr.timeOp("taskgraph.round", iters, func() {
		for i := 0; i < iters && err == nil; i++ {
			round++
			err = eachPeer(peers, round, func(i int, _ *proto.Peer) error {
				_, e := execs[i].Run(ctx, round, nil, taskgraph.Options{})
				return e
			})
		}
	})
	pr.out.add("taskgraph.round_us", d/1e3, "us")
	pr.out.add("taskgraph.round_allocs", allocs, "allocs/op")
	return err
}

func probeMechanism(pr *prober) error {
	var err error
	for _, c := range []struct {
		name        string
		n, m, iters int
	}{
		{"mechanism.double_solve_small", 10, 3, 2000},
		{"mechanism.double_solve_wide", 1000, 8, 20},
	} {
		bids := bidVector(c.n, c.m)
		d, _ := pr.timeOp(c.name, c.iters, func() {
			for i := 0; i < c.iters; i++ {
				if _, err = doubleauction.Solve(bids); err != nil {
					return
				}
			}
		})
		pr.out.add(c.name+"_us", d/1e3, "us")
	}
	if err != nil {
		return err
	}

	w, _ := findWorkload("fig5-standard-n60")
	users := bidVector(w.n, w.m).Users
	params := standardauction.Params{Capacities: standardCapacities(w), InvEpsilon: 5, IterFactor: 1}
	var assign standardauction.Assignment
	const solves = 20
	d, _ := pr.timeOp("mechanism.standard_solve", solves, func() {
		for i := 0; i < solves; i++ {
			if assign, err = standardauction.SolveAllocation(users, params, 7); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	pr.out.add("mechanism.standard_solve_us", d/1e3, "us")
	d, _ = pr.timeOp("mechanism.vcg_payments", 1, func() {
		for i := range users {
			if _, err = standardauction.Payment(users, params, 7, assign, i); err != nil {
				return
			}
		}
	})
	pr.out.add("mechanism.vcg_payments_ms", d/1e6, "ms")
	return err
}

// probeGateway enforces one accepted n=10 outcome: settlement in the
// ledger plus one reservation per winning (user, provider) pair.
func probeGateway(pr *prober) error {
	const n, m = 10, 3
	out, err := doubleauction.Solve(bidVector(n, m))
	if err != nil {
		return err
	}
	users := make([]wire.NodeID, n)
	providers := make([]wire.NodeID, m)
	const escrow wire.NodeID = 999
	led := ledger.New()
	led.Open(escrow)
	gws := make([]*gateway.Gateway, m)
	for p := range providers {
		providers[p] = wire.NodeID(p + 1)
		led.Open(providers[p])
		gws[p] = gateway.New(providers[p], fixed.MustInt(1_000_000), nil)
	}
	for u := range users {
		users[u] = wire.NodeID(1001 + u)
		led.Open(users[u])
		if err := led.Deposit(users[u], fixed.MustInt(1_000_000)); err != nil {
			return err
		}
	}
	enf := &gateway.Enforcer{Ledger: led, Gateways: gws, Escrow: escrow, TTL: time.Millisecond}
	const iters = 2000
	var round uint64
	d, _ := pr.timeOp("gateway.enforce", iters, func() {
		for i := 0; i < iters; i++ {
			round++
			if err = enf.Enforce(round, out, users, providers); err != nil {
				return
			}
		}
		enf.Sweep()
	})
	pr.out.add("gateway.enforce_us", d/1e3, "us")
	return err
}
