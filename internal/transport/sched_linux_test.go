package transport

import (
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// TestHubCloseReleasesTimers: each delivery shard's loop holds a timerfd,
// which Close must release with the loop. 100 Hubs, each with a loop
// started by a delayed hop, leave the process's descriptor count as it was.
func TestHubCloseReleasesTimers(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	// With the collector off, no finalizer closes a leaked descriptor
	// behind the test's back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := fds()
	for i := 0; i < 100; i++ {
		h := NewHub(LatencyModel{Base: time.Hour}, 1)
		a, _ := h.Attach(1)
		h.Attach(2)
		if err := a.Send(env(1, 2, "later")); err != nil {
			t.Fatal(err)
		}
		if len(loopsDone(h)) != 1 {
			t.Fatal("the delayed hop started no delivery loop")
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after != before {
		t.Errorf("%d open descriptors after 100 Hubs were opened and closed, want %d", after, before)
	}
}
