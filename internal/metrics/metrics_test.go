package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %v, want %v", w.Var(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("empty accumulator should be zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Error("single observation stats wrong")
	}
}

// Property: Welford mean matches the naive mean.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		sum := 0.0
		count := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			w.Add(x)
			sum += x
			count++
		}
		if count == 0 {
			return w.N() == 0
		}
		naive := sum / float64(count)
		return math.Abs(w.Mean()-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 50}, {95, 95}, {100, 100}, {-5, 1}, {200, 100},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); got != tt.want {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
	var empty Sample
	if empty.Percentile(50) != 0 {
		t.Error("empty sample percentile should be 0")
	}
}

func TestDurationStats(t *testing.T) {
	var d DurationStats
	d.Add(100 * time.Millisecond)
	d.Add(200 * time.Millisecond)
	d.Add(300 * time.Millisecond)
	if d.N() != 3 {
		t.Errorf("n = %d", d.N())
	}
	if got := d.Mean(); got != 200*time.Millisecond {
		t.Errorf("mean = %v", got)
	}
	if d.Min() != 100*time.Millisecond || d.Max() != 300*time.Millisecond {
		t.Error("min/max wrong")
	}
	if d.P(50) != 200*time.Millisecond {
		t.Errorf("p50 = %v", d.P(50))
	}
}

func TestTableFormatting(t *testing.T) {
	out := Table(
		Row{Label: "n", Cols: []string{"centralized", "k=1"}},
		[]Row{
			{Label: "100", Cols: []string{"0.05s", "0.10s"}},
			{Label: "1000", Cols: []string{"0.40s", "0.90s"}},
		},
	)
	if !strings.Contains(out, "centralized") || !strings.Contains(out, "1000") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
}

func TestMeterRate(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewMeter(func() time.Time { return now })
	if m.Rate() != 0 {
		t.Errorf("rate with no elapsed time = %v, want 0", m.Rate())
	}
	m.Mark(10)
	now = now.Add(2 * time.Second)
	if got := m.Rate(); got != 5 {
		t.Errorf("rate = %v, want 5", got)
	}
	if m.Count() != 10 {
		t.Errorf("count = %d, want 10", m.Count())
	}
}
