package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"distauction/internal/federation"
	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

func hist(ds ...time.Duration) metrics.HistogramSnapshot {
	var h metrics.Histogram
	for _, d := range ds {
		h.RecordDuration(d)
	}
	return h.Snapshot()
}

var fixedRuntime = metrics.RuntimeStats{Goroutines: 42, HeapAlloc: 1 << 20, PauseTotalNs: 12345}

// fixedAttachment is one node's attachment in the synthetic trees.
func fixedAttachment() market.Attachment {
	return market.Attachment{
		ParkedDropped: 1, FramesSent: 40, SuperframesSent: 10, EnvelopesSent: 90, EnvelopesLost: 2,
		PeerHealth: []transport.PeerHealth{{Peer: 2, State: transport.HealthAlive}, {Peer: 3, State: transport.HealthDead}},
		Link:       transport.LinkStats{Resends: 3, Reconnects: 1, DupsDropped: 2, Heartbeats: 7},
	}
}

// fixedAuctions are the synthetic trees' leaves: alpha and beta (shard 1's
// lane band) and gamma (shard 2's).
func fixedAuctions() (alpha, beta, gamma market.AuctionSnapshot) {
	alpha = market.AuctionSnapshot{Name: "alpha", Lane: 3, LastRound: 5, Counters: market.Counters{
		Rounds: 5, Accepted: 4, Aborted: 1, RoundsPerSec: 2.5, BidsAdmitted: 20, BidsDropped: 2, QueueDepth: 1,
		Latency: hist(time.Millisecond, 2*time.Millisecond, 3*time.Millisecond, 4*time.Millisecond, 50*time.Millisecond)}}
	alpha.AbortCodes[proto.AbortTimeout] = 1
	beta = market.AuctionSnapshot{Name: "beta", Lane: 77, LastRound: 3, Counters: market.Counters{
		Rounds: 3, Accepted: 3, RoundsPerSec: 1.5, BidsAdmitted: 12,
		Latency: hist(1500*time.Microsecond, 2500*time.Microsecond, 3500*time.Microsecond)}}
	gamma = market.AuctionSnapshot{Name: "gamma", Lane: 281, LastRound: 4, Counters: market.Counters{
		Rounds: 4, Accepted: 4, RoundsPerSec: 2, BidsAdmitted: 16,
		Latency: hist(7*time.Millisecond, 8*time.Millisecond, 9*time.Millisecond, 10*time.Millisecond)}}
	return alpha, beta, gamma
}

// marketTree is a one-node market: what a TCP-mode daemon exports.
func marketTree() market.Snapshot {
	alpha, beta, _ := fixedAuctions()
	snap := market.Snapshot{Open: 2, Attachment: fixedAttachment(), Auctions: []market.AuctionSnapshot{alpha, beta}}
	snap.Counters.Add(alpha.Counters)
	snap.Counters.Add(beta.Counters)
	return snap
}

// federationTree is a two-shard federation with a settle group: what a hub
// run exports. Nodes 1 and 4 carry the fixed attachment, the rest are idle.
func federationTree() federation.Snapshot {
	alpha, beta, gamma := fixedAuctions()
	snap := federation.Snapshot{
		SettleCommits: 2, SettleAborts: 1, SettleErrs: 1,
		SettleLatency: hist(5*time.Millisecond, 6*time.Millisecond, 7*time.Millisecond),
		PerShard: []federation.ShardSnapshot{
			{Shard: 1, Committee: []wire.NodeID{1, 2, 3}, Auctions: []market.AuctionSnapshot{alpha, beta}},
			{Shard: 2, Committee: []wire.NodeID{4, 5, 6}, Auctions: []market.AuctionSnapshot{gamma}},
		},
	}
	for i := range snap.PerShard {
		ss := &snap.PerShard[i]
		for _, as := range ss.Auctions {
			ss.Counters.Add(as.Counters)
		}
		snap.Counters.Add(ss.Counters)
		for j, id := range ss.Committee {
			ns := federation.NodeSnapshot{Node: id, Serves: []int{ss.Shard}, Counters: ss.Counters}
			if j == 0 {
				ns.Attachment = fixedAttachment()
			}
			snap.Attachment.Add(ns.Attachment)
			snap.PerNode = append(snap.PerNode, ns)
		}
	}
	return snap
}

func render(tree statsTree) string {
	var buf bytes.Buffer
	writeMetrics(&buf, tree, fixedRuntime)
	return buf.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parentGolden reads a parent exposition minus the series of the two abort
// codes deleted since (mac and settlement: nothing produced them).
func parentGolden(t *testing.T, name string) string {
	t.Helper()
	s := golden(t, name)
	for _, code := range []string{"mac", "settlement"} {
		s = strings.Replace(s, `distauction_aborts_total{code="`+code+`"} 0`+"\n", "", 1)
	}
	return s
}

// beyondParent checks that every line of a parent exposition is still
// emitted, unchanged and in order, and returns the lines emitted beyond it.
// The *_parent.golden files were rendered by PR 16's writeMetrics (its
// market and federation branches) on the same values as the trees above.
func beyondParent(t *testing.T, got, parent string) string {
	t.Helper()
	want := strings.SplitAfter(parent, "\n")
	var extra strings.Builder
	for _, line := range strings.SplitAfter(got, "\n") {
		if len(want) > 0 && line == want[0] {
			want = want[1:]
		} else {
			extra.WriteString(line)
		}
	}
	if len(want) > 0 {
		t.Fatalf("parent series missing or out of order, starting at:\n%s\nfull output:\n%s", want[0], got)
	}
	return extra.String()
}

// A market tree (TCP mode) keeps every series of the parent's market branch
// and gains exactly the two families every tree now has, plus the series of
// the trace phase appended since (agree-digest, bid agreement's digest
// gather).
func TestMetricsMarketTreeKeepsParentSeries(t *testing.T) {
	const gained = "# HELP distauction_envelopes_lost_total Queued envelopes whose frame failed to ship.\n" +
		"# TYPE distauction_envelopes_lost_total counter\n" +
		"distauction_envelopes_lost_total 2\n" +
		"# HELP distauction_peers_dead Peers some attachment currently judges dead.\n" +
		"# TYPE distauction_peers_dead gauge\n" +
		"distauction_peers_dead 1\n" +
		"distauction_phase_duration_seconds{phase=\"agree-digest\",quantile=\"0.5\"} 0\n" +
		"distauction_phase_duration_seconds{phase=\"agree-digest\",quantile=\"0.99\"} 0\n" +
		"distauction_phase_duration_seconds{phase=\"agree-digest\",quantile=\"0.999\"} 0\n" +
		"distauction_phase_duration_seconds_sum{phase=\"agree-digest\"} 0\n" +
		"distauction_phase_duration_seconds_count{phase=\"agree-digest\"} 0\n"
	if extra := beyondParent(t, render(marketTree()), parentGolden(t, "market_parent.golden")); extra != gained {
		t.Fatalf("lines beyond the parent's:\n%s\nwant exactly:\n%s", extra, gained)
	}
}

// A federation tree (hub mode) is pinned whole, and is a superset of the
// parent's federation branch — whose rounds_total HELP said "shards" where
// the one writer says "auctions".
func TestMetricsFederationTreeGolden(t *testing.T) {
	got := render(federationTree())
	if got != golden(t, "federation.golden") {
		t.Fatalf("exposition differs from testdata/federation.golden; got:\n%s", got)
	}
	beyondParent(t, got, strings.Replace(parentGolden(t, "federation_parent.golden"),
		"Rounds completed across all shards.", "Rounds completed across all auctions.", 1))
}

// Every emitted line is a HELP comment, a TYPE comment or a sample; every
// sample's family was announced by both, once.
func TestMetricsLinesAreWellFormed(t *testing.T) {
	help := regexp.MustCompile(`^# HELP (distauction_[a-z_]+) \S.*$`)
	typ := regexp.MustCompile(`^# TYPE (distauction_[a-z_]+) (counter|gauge|summary)$`)
	sample := regexp.MustCompile(`^(distauction_[a-z_]+?)(_sum|_count)?(\{[a-z]+="[^"]*"(,[a-z]+="[^"]*")*\})? -?[0-9][0-9.e+-]*$`)
	for name, tree := range map[string]statsTree{"market": marketTree(), "federation": federationTree()} {
		helped, typed, seen := map[string]int{}, map[string]string{}, map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(render(tree), "\n"), "\n") {
			if m := help.FindStringSubmatch(line); m != nil {
				helped[m[1]]++
			} else if m := typ.FindStringSubmatch(line); m != nil {
				typed[m[1]] = m[2]
			} else if m := sample.FindStringSubmatch(line); m != nil {
				family := m[1]
				if typed[family] != "summary" {
					family += m[2] // _sum/_count are their own name outside a summary
				}
				if helped[family] != 1 || typed[family] == "" {
					t.Errorf("%s: sample of unannounced family: %s", name, line)
				}
				if series := m[1] + m[2] + m[3]; seen[series] {
					t.Errorf("%s: duplicate series: %s", name, line)
				} else {
					seen[series] = true
				}
			} else {
				t.Errorf("%s: not HELP, TYPE or a sample: %q", name, line)
			}
		}
	}
}
