package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"distauction/internal/taskgraph"
	"distauction/internal/testleak"
	"distauction/internal/transport"
	"distauction/internal/wire"
)

// TestSessionLifecycleNoGoroutineLeak opens a full session cluster, runs it
// to its round limit, closes everything and requires the goroutine census
// to settle back to the snapshot: the persistent round workers, the
// executor's task workers and the emitter must all join on Close, and no
// per-round timer or watchdog may survive the session.
func TestSessionLifecycleNoGoroutineLeak(t *testing.T) {
	providers := []wire.NodeID{1, 2, 3}
	users := []wire.NodeID{101, 102}
	testleak.Check(t, func() {
		hub := transport.NewHub(transport.LatencyModel{}, 1)
		defer hub.Close()
		var sessions []*Session
		for _, id := range providers {
			conn, err := hub.Attach(id)
			if err != nil {
				t.Fatal(err)
			}
			s, err := OpenSession(conn, providers, users,
				WithMechanismName("double"),
				WithBidWindow(5*time.Millisecond),
				WithRoundLimit(3),
				WithRoundTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
		}
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func(s *Session) {
				defer wg.Done()
				for out := range s.Outcomes() {
					if out.Err != nil {
						t.Errorf("round %d: %v", out.Round, out.Err)
					}
				}
			}(s)
		}
		wg.Wait()
		for _, s := range sessions {
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})
}

// TestSessionAbortiveCloseNoGoroutineLeak closes sessions mid-flight (no
// round limit, rounds in progress) and requires the same clean join: the
// in-flight rounds abort loudly, the workers drain, nothing leaks.
func TestSessionAbortiveCloseNoGoroutineLeak(t *testing.T) {
	providers := []wire.NodeID{1, 2, 3}
	users := []wire.NodeID{101, 102}
	testleak.Check(t, func() {
		hub := transport.NewHub(transport.LatencyModel{}, 1)
		defer hub.Close()
		var sessions []*Session
		for _, id := range providers {
			conn, err := hub.Attach(id)
			if err != nil {
				t.Fatal(err)
			}
			s, err := OpenSession(conn, providers, users,
				WithMechanismName("double"),
				WithBidWindow(time.Millisecond),
				WithRoundTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
		}
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func(s *Session) {
				defer wg.Done()
				for range s.Outcomes() {
				}
			}(s)
		}
		// Let a few rounds get in flight, then tear down mid-stride.
		time.Sleep(20 * time.Millisecond)
		for _, s := range sessions {
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
		wg.Wait()
	})
}

// brokenGraph is a mechanism whose task graph cannot be built.
type brokenGraph struct{ DoubleAuction }

func (brokenGraph) Name() string { return "broken-graph" }

func (brokenGraph) Graph(GraphConfig) (*taskgraph.Graph, error) {
	return taskgraph.New(nil, 0, nil) // no tasks: ErrBadGraph
}

// TestOpenRejectsNonCompilingMechanism: a mechanism whose graph does not
// build fails Open with an ErrConfig error naming it — not every round
// later — and Open leaves no goroutine behind and the conn untouched.
func TestOpenRejectsNonCompilingMechanism(t *testing.T) {
	providers := []wire.NodeID{1, 2, 3}
	testleak.Check(t, func() {
		hub := transport.NewHub(transport.LatencyModel{}, 1)
		defer hub.Close()
		conn, err := hub.Attach(1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenSession(conn, providers, nil, WithK(1), WithMechanism(brokenGraph{}))
		if err == nil {
			s.Close()
			t.Fatal("Open accepted a mechanism whose graph does not build")
		}
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), `"broken-graph"`) {
			t.Errorf("error %q: want ErrConfig naming the mechanism", err)
		}
		// The conn still belongs to the caller: a working mechanism opens on it.
		s, err = OpenSession(conn, providers, nil, WithK(1), WithMechanism(DoubleAuction{}), WithBidWindow(time.Millisecond))
		if err != nil {
			t.Fatalf("reopen on the same conn: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}
