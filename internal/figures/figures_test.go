package figures

import (
	"strings"
	"testing"
	"time"

	"distauction/internal/transport"
)

// Quick end-to-end smoke of both figure generators with tiny sweeps; the
// real sweeps run in cmd/benchfig and the root benchmarks.
func TestFig4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	opts := Options{Rounds: 1, Quick: true, Latency: transport.LatencyModel{Base: 200 * time.Microsecond}}
	pts, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig4Ns(true)) {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Centralized <= 0 || p.K1 <= 0 || p.K2 <= 0 || p.K3 <= 0 {
			t.Errorf("n=%d has non-positive durations: %+v", p.N, p)
		}
	}
	// Shape: the distributed simulation costs more than the trusted
	// auctioneer (coordination overhead, Figure 4's headline). Asserted on
	// messages, not on milliseconds a loaded host can reorder: at n=50 the
	// trusted auctioneer sends ≈ 100, k=3 over eight providers ≈ 1100.
	msgs := make([]int64, len(fig4Series))
	for s := range fig4Series {
		res, err := fig4Run(opts.withDefaults(), s, 50, 0)
		if err != nil {
			t.Fatal(err)
		}
		msgs[s] = res.Msgs
	}
	if cent, k3 := msgs[0], msgs[3]; k3 <= 2*cent {
		t.Errorf("n=50: k=3 sent %d messages, centralized %d — coordination overhead missing", k3, cent)
	}
	t.Logf("messages at n=50 (centralized, k=1, k=2, k=3): %v", msgs)
	var sb strings.Builder
	if err := WriteFig4(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "centralized") {
		t.Error("table missing header")
	}
	t.Logf("\n%s", sb.String())
}

func TestFig5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	pts, err := Fig5(Options{Rounds: 1, Quick: true,
		Latency: transport.LatencyModel{Base: 200 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig5Ns(true)) {
		t.Fatalf("got %d points", len(pts))
	}
	last := pts[len(pts)-1]
	// Shape: with compute dominating, parallel beats serial and more
	// parallelism beats less (Figure 5's headline).
	if last.P4 >= last.P1 {
		t.Errorf("n=%d: p=4 (%v) not faster than serial (%v)", last.N, last.P4, last.P1)
	}
	if last.P2 >= last.P1 {
		t.Errorf("n=%d: p=2 (%v) not faster than serial (%v)", last.N, last.P2, last.P1)
	}
	var sb strings.Builder
	if err := WriteFig5(&sb, pts); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", sb.String())
}

func TestModelDelayGrowsSuperlinearly(t *testing.T) {
	if Fig5ModelDelay(100) <= 4*Fig5ModelDelay(50)-time.Microsecond {
		t.Error("model delay should grow quadratically")
	}
}
