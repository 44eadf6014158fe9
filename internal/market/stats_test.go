package market_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/workload"
)

// TestStatsRollUpAndRetire runs two auctions (one with a poisoned round, so
// the typed abort counts are live) and checks the two rules of the market
// scope: its Counters are the Add of its auctions', and retiring an auction
// takes nothing away from them.
func TestStatsRollUpAndRetire(t *testing.T) {
	const rounds, n = 4, 3
	d := newDeployment(t, 3, nil)
	alphaUsers, betaUsers := userRange(1001, n), userRange(2001, n)
	alphaInst := workload.NewDoubleAuction(1, n, 3)
	betaInst := workload.NewDoubleAuction(2, n, 3)
	d.openAuction("alpha", alphaUsers, rounds, alphaInst, nil)
	d.openAuction("beta", betaUsers, rounds, betaInst, nil)
	a, _ := d.markets[0].Auction("alpha")
	if err := a.Session().Peer().Abort(3, "roll-up test"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); d.runBidders("alpha", alphaUsers, rounds, alphaInst) }()
	go func() { defer wg.Done(); d.runBidders("beta", betaUsers, rounds, betaInst) }()
	wg.Wait()
	mk := d.markets[0]
	waitForRounds(t, mk, 2*rounds)

	before := mk.Stats()
	var sum market.Counters
	for _, as := range before.Auctions {
		sum.Add(as.Counters)
	}
	if !reflect.DeepEqual(sum, before.Counters) {
		t.Fatalf("market counters are not the Add of its auctions':\n sum %+v\n got %+v", sum, before.Counters)
	}
	var coded int64
	for _, n := range before.AbortCodes {
		coded += n
	}
	if before.Aborted != 1 || coded != 1 {
		t.Fatalf("the poisoned round is not in the totals: aborted=%d, typed=%d", before.Aborted, coded)
	}
	if before.Latency.Count != 2*rounds || before.Latency.Sum == 0 {
		t.Fatalf("latency histogram holds %d observations, want %d", before.Latency.Count, 2*rounds)
	}

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := mk.DrainAuction(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	after := mk.Stats()
	if after.Open != 1 || len(after.Auctions) != 1 || after.Auctions[0].Name != "beta" {
		t.Fatalf("after the drain: open=%d auctions=%+v", after.Open, after.Auctions)
	}
	for name, pair := range map[string][2]int64{
		"Rounds":        {before.Rounds, after.Rounds},
		"Accepted":      {before.Accepted, after.Accepted},
		"Aborted":       {before.Aborted, after.Aborted},
		"BidsAdmitted":  {before.BidsAdmitted, after.BidsAdmitted},
		"BidsDropped":   {before.BidsDropped, after.BidsDropped},
		"EnforceErrs":   {before.EnforceErrs, after.EnforceErrs},
		"Latency.Count": {before.Latency.Count, after.Latency.Count},
		"Latency.Sum":   {before.Latency.Sum, after.Latency.Sum},
	} {
		if pair[1] < pair[0] {
			t.Errorf("%s went down across the drain: %d -> %d", name, pair[0], pair[1])
		}
	}
	for c := range before.AbortCodes {
		if after.AbortCodes[c] < before.AbortCodes[c] {
			t.Errorf("AbortCodes[%v] went down across the drain: %d -> %d", proto.AbortCode(c), before.AbortCodes[c], after.AbortCodes[c])
		}
	}
	// The levels describe what is open: only beta is.
	if after.RoundsPerSec != after.Auctions[0].RoundsPerSec || after.QueueDepth != after.Auctions[0].QueueDepth {
		t.Errorf("levels still count the retired auction: %+v", after.Counters)
	}
}

// TestAddCommutes: folding two scopes gives the same parent in either order,
// for both groups — peer health included, which merges by peer.
func TestAddCommutes(t *testing.T) {
	var h1, h2 metrics.Histogram
	h1.RecordDuration(time.Millisecond)
	h2.RecordDuration(5 * time.Millisecond)
	h2.RecordDuration(7 * time.Millisecond)
	c1 := market.Counters{Rounds: 5, Accepted: 4, Aborted: 1, RoundsPerSec: 2.5, BidsAdmitted: 20, BidsDropped: 2, QueueDepth: 1, EnforceErrs: 1, Latency: h1.Snapshot()}
	c1.AbortCodes[proto.AbortTimeout] = 1
	c2 := market.Counters{Rounds: 3, Accepted: 1, Aborted: 2, RoundsPerSec: 0.75, BidsAdmitted: 9, QueueDepth: 4, Latency: h2.Snapshot()}
	c2.AbortCodes[proto.AbortTimeout], c2.AbortCodes[proto.AbortDisconnect] = 1, 1
	c12, c21 := c1, c2
	c12.Add(c2)
	c21.Add(c1)
	if !reflect.DeepEqual(c12, c21) {
		t.Errorf("Counters.Add does not commute:\n %+v\n %+v", c12, c21)
	}
	if c12.Rounds != 8 || c12.Latency.Count != 3 || c12.AbortCodes[proto.AbortTimeout] != 2 {
		t.Errorf("Counters.Add lost something: %+v", c12)
	}

	a1 := market.Attachment{ParkedDropped: 1, FramesSent: 40, SuperframesSent: 10, EnvelopesSent: 90, BatchesIn: 3, BatchedEnvsIn: 9,
		Link: transport.LinkStats{Resends: 3, Heartbeats: 7},
		PeerHealth: []transport.PeerHealth{
			{Peer: 2, State: transport.HealthAlive, SinceHeard: time.Millisecond},
			{Peer: 3, State: transport.HealthDead, SinceHeard: time.Second}}}
	a2 := market.Attachment{FramesSent: 4, EnvelopesSent: 4,
		Link: transport.LinkStats{Reconnects: 1},
		PeerHealth: []transport.PeerHealth{
			{Peer: 1, State: transport.HealthAlive},
			{Peer: 2, State: transport.HealthSuspect, SinceHeard: 20 * time.Millisecond},
			{Peer: 3, State: transport.HealthAlive}}}
	a12, a21 := a1, a2
	a12.Add(a2)
	a21.Add(a1)
	if !reflect.DeepEqual(a12, a21) {
		t.Errorf("Attachment.Add does not commute:\n %+v\n %+v", a12, a21)
	}
	want := []transport.PeerHealth{
		{Peer: 1, State: transport.HealthAlive},
		{Peer: 2, State: transport.HealthSuspect, SinceHeard: 20 * time.Millisecond},
		{Peer: 3, State: transport.HealthDead, SinceHeard: time.Second}}
	if !reflect.DeepEqual(a12.PeerHealth, want) || a12.DeadPeers() != 1 {
		t.Errorf("peer health merge: %+v", a12.PeerHealth)
	}
	if len(a1.PeerHealth) != 2 || a1.PeerHealth[0].State != transport.HealthAlive {
		t.Errorf("Add wrote through its operand's table: %+v", a1.PeerHealth)
	}
}
