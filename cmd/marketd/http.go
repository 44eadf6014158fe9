package main

// The export plane: a small HTTP server publishing the marketplace's
// observability surfaces — Prometheus-text /metrics (counters, typed abort
// breakdowns, per-auction and per-shard latency quantiles, phase-duration
// quantiles) and /debug/trace (the flight recorder's ring contents and
// dumps as JSON). Everything is computed on demand from the same Stats()
// snapshots the tables print, so scraping costs nothing between requests.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"distauction/internal/market"
	"distauction/internal/metrics"
	"distauction/internal/proto"
	"distauction/internal/trace"
	"distauction/internal/transport"
)

// statsTree is the one snapshot source of the export plane and the stats
// table: whatever the running deployment's Stats() returns — one market's
// tree over TCP, a federation's in hub mode. Renderers see only its scopes,
// so a series or a row exists iff its scope does.
type statsTree interface{ Scopes() []market.Scope }

// quantiles reported for every latency summary.
var exportQuantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.99, "0.99"}, {0.999, "0.999"}}

// startExporter serves /metrics and /debug/trace on addr and returns a
// shutdown func. The listener binds synchronously so a bad address fails
// startup instead of surfacing on first scrape.
func startExporter(addr string, stats func() statsTree) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, stats(), metrics.ReadRuntime())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeTrace(w)
	})
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Printf("marketd: metrics server: %v\n", err)
		}
	}()
	fmt.Printf("marketd: metrics on http://%s/metrics, flight recorder on /debug/trace\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// writeMetrics renders the Prometheus text exposition: the root's totals,
// then one latency family per kind of child scope the tree has.
func writeMetrics(w io.Writer, tree statsTree, rt metrics.RuntimeStats) {
	byKind := make(map[string][]market.Scope)
	for _, s := range tree.Scopes() {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	root := byKind[""][0]
	c, at := root.Counters, root.Attachment
	writeCounter(w, "distauction_rounds_total", "Rounds completed across all auctions.", c.Rounds)
	writeCounter(w, "distauction_rounds_accepted_total", "Non-bottom rounds.", c.Accepted)
	writeCounter(w, "distauction_rounds_aborted_total", "Bottom rounds.", c.Aborted)
	writeCounter(w, "distauction_bids_admitted_total", "Bids admitted by the gates.", c.BidsAdmitted)
	writeCounter(w, "distauction_bids_dropped_total", "Bids dropped at the gates.", c.BidsDropped)
	for _, s := range byKind[market.ScopeSettle] {
		writeCounter(w, "distauction_settle_commits_total", "Cross-shard rounds settled atomically.", s.Counters.Accepted)
		writeCounter(w, "distauction_settle_aborts_total", "Cross-shard rounds aborted and released.", s.Counters.Aborted)
	}
	writeCounter(w, "distauction_frames_sent_total", "Outbound frames shipped by the coalescer.", at.FramesSent)
	writeCounter(w, "distauction_envelopes_sent_total", "Envelopes those frames carried.", at.EnvelopesSent)
	writeCounter(w, "distauction_envelopes_lost_total", "Queued envelopes whose frame failed to ship.", at.EnvelopesLost)
	writeCounter(w, "distauction_reconnects_total", "Dead peers that came back alive (reconnect-with-resume).", at.Link.Reconnects)
	writeCounter(w, "distauction_link_resends_total", "Unacked link frames resent.", at.Link.Resends)
	writeCounter(w, "distauction_link_dups_dropped_total", "Duplicate link frames absorbed by seq dedup.", at.Link.DupsDropped)
	writeCounter(w, "distauction_link_overflow_total", "Unacked frames evicted by a full resend buffer.", at.Link.Overflow)
	writePeerHealth(w, at.PeerHealth)
	writeGauge(w, "distauction_peers_dead", "Peers some attachment currently judges dead.", int64(at.DeadPeers()))
	writeAbortCodes(w, c.AbortCodes)
	writeLatency(w, "distauction_outcome_latency_seconds", "Outcome latency, bid collection through delivery.",
		market.ScopeAuction, c, byKind[market.ScopeAuction])
	if shards := byKind[market.ScopeShard]; len(shards) > 0 {
		writeLatency(w, "distauction_shard_outcome_latency_seconds", "Per-shard outcome latency.", market.ScopeShard, c, shards)
	}
	for _, s := range byKind[market.ScopeSettle] {
		fmt.Fprintln(w, "# HELP distauction_settle_latency_seconds Two-phase settlement latency, barrier release to completion.")
		fmt.Fprintln(w, "# TYPE distauction_settle_latency_seconds summary")
		writeSummary(w, "distauction_settle_latency_seconds", "", s.Counters.Latency)
	}
	writeGauge(w, "distauction_goroutines", "Current goroutine count.", int64(rt.Goroutines))
	writeGauge(w, "distauction_heap_alloc_bytes", "Live heap bytes.", int64(rt.HeapAlloc))
	writeCounter(w, "distauction_gc_pause_ns_total", "Cumulative stop-the-world pause time.", int64(rt.PauseTotalNs))

	// Phase-duration summaries come from the trace layer and fill in only
	// while tracing is on; the series still exist (at zero) when it is off,
	// so dashboards need no conditional queries.
	enabled := int64(0)
	if trace.Enabled() {
		enabled = 1
	}
	writeGauge(w, "distauction_trace_enabled", "1 while span tracing is on.", enabled)
	fmt.Fprintln(w, "# HELP distauction_phase_duration_seconds Span duration by round-pipeline phase (traced only).")
	fmt.Fprintln(w, "# TYPE distauction_phase_duration_seconds summary")
	durs := trace.PhaseDurations()
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		writeSummary(w, "distauction_phase_duration_seconds", fmt.Sprintf("phase=%q", ph.String()), durs[ph])
	}
	writeGauge(w, "distauction_trace_dumps", "Flight-recorder dumps retained.", int64(len(trace.Dumps())))
}

func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// writePeerHealth emits one gauge sample per peer the failure detector
// tracks, labelled by its current verdict.
func writePeerHealth(w io.Writer, peers []transport.PeerHealth) {
	fmt.Fprintln(w, "# HELP distauction_peer_health Failure-detector verdict per peer (1 = the labelled state).")
	fmt.Fprintln(w, "# TYPE distauction_peer_health gauge")
	for _, ph := range peers {
		fmt.Fprintf(w, "distauction_peer_health{peer=\"%d\",state=%q} 1\n", ph.Peer, ph.State.String())
	}
}

// writeAbortCodes emits the typed ⊥ breakdown as one counter per cause.
func writeAbortCodes(w io.Writer, codes [proto.NumAbortCodes]int64) {
	fmt.Fprintln(w, "# HELP distauction_aborts_total Bottom rounds by typed cause.")
	fmt.Fprintln(w, "# TYPE distauction_aborts_total counter")
	for c := proto.AbortCode(0); c < proto.NumAbortCodes; c++ {
		fmt.Fprintf(w, "distauction_aborts_total{code=%q} %d\n", c.String(), codes[c])
	}
}

// writeLatency emits one latency family over the scopes of one kind: the
// root as the "_all" series, then one series per scope.
func writeLatency(w io.Writer, name, help, kind string, all *market.Counters, scopes []market.Scope) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	writeSummary(w, name, kind+`="_all"`, all.Latency)
	for _, s := range scopes {
		writeSummary(w, name, fmt.Sprintf("%s=%q", kind, s.Name), s.Counters.Latency)
	}
}

// writeSummary emits one histogram as a Prometheus summary: the export
// quantiles plus _sum and _count. Values are stored in nanoseconds;
// exported in seconds per convention.
func writeSummary(w io.Writer, name, labels string, h metrics.HistogramSnapshot) {
	for _, eq := range exportQuantiles {
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(w, "%s{%s%squantile=%q} %g\n", name, labels, sep, eq.label,
			h.QuantileDuration(eq.q).Seconds())
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, time.Duration(h.Sum).Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.Count)
}

// traceView is the /debug/trace response shape.
type traceView struct {
	Enabled bool          `json:"enabled"`
	Events  []trace.Event `json:"events"`
	Dumps   []trace.Dump  `json:"dumps"`
}

func writeTrace(w io.Writer) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(traceView{
		Enabled: trace.Enabled(),
		Events:  trace.Events(),
		Dumps:   trace.Dumps(),
	})
}

// printFlightDumps renders the flight recorder's retained dumps — the
// shutdown path's last words. Each dump names the round, its fate, and
// the attributed culprit and phase.
func printFlightDumps() {
	dumps := trace.Dumps()
	if len(dumps) == 0 {
		return
	}
	fmt.Printf("marketd: flight recorder: %d dump(s)\n", len(dumps))
	for _, d := range dumps {
		fate := "slow"
		if d.Aborted {
			fate = "aborted"
		}
		culprit := "unattributed"
		if d.Culprit != trace.NoPeer {
			culprit = fmt.Sprintf("peer %d", d.Culprit)
		}
		fmt.Printf("  round %d lane %d: %s after %v in phase %s (%s, code %d, %d events)\n",
			d.Round, d.Lane, fate, d.Dur.Round(time.Microsecond), d.Phase, culprit, d.Code, len(d.Events))
	}
}
