//go:build !linux

package transport

import "time"

// alarm is a delivery loop's wake-up: a runtime timer, whose wake the
// netpoller may round to a whole millisecond (DESIGN.md, *Wake
// precision*). Linux builds use a timerfd instead.
type alarm struct{ t *time.Timer }

func newAlarm() (*alarm, error) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &alarm{t: t}, nil
}

// arm sets the alarm to go off once, d from now (at once when d <= 0),
// replacing any earlier setting.
func (a *alarm) arm(d time.Duration) { a.t.Reset(d) }

// wait blocks until the alarm goes off.
func (a *alarm) wait() { <-a.t.C }

func (a *alarm) close() { a.t.Stop() }
