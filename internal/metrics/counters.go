package metrics

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Meter is a Counter with a birth time, so callers can read an average
// event rate without keeping their own clock. Create with NewMeter.
type Meter struct {
	count Counter
	start time.Time
	clock func() time.Time
}

// NewMeter starts a meter. A nil clock uses time.Now.
func NewMeter(clock func() time.Time) *Meter {
	if clock == nil {
		clock = time.Now
	}
	return &Meter{start: clock(), clock: clock}
}

// Mark records n events.
func (m *Meter) Mark(n int64) { m.count.Add(n) }

// Count returns the events recorded so far.
func (m *Meter) Count() int64 { return m.count.Load() }

// Rate returns events per second since the meter started (0 before any
// time has elapsed).
func (m *Meter) Rate() float64 {
	elapsed := m.clock().Sub(m.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count.Load()) / elapsed
}
