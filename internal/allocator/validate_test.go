package allocator

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"distauction/internal/proto"
)

// validateAll runs the input-validation step at every peer concurrently.
func validateAll(t *testing.T, peers []*proto.Peer, round uint64, inputs [][]byte) []error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *proto.Peer) {
			defer wg.Done()
			_, errs[i] = validateInput(ctx, p, round, inputs[i], nil)
		}(i, p)
	}
	wg.Wait()
	return errs
}

func TestAllSameInputPasses(t *testing.T) {
	peers := newPeers(t, 4)
	in := []byte("the agreed bid vector")
	errs := validateAll(t, peers, 1, [][]byte{in, in, in, in})
	for i, err := range errs {
		if err != nil {
			t.Errorf("peer %d: %v", i, err)
		}
	}
}

func TestMismatchAborts(t *testing.T) {
	peers := newPeers(t, 3)
	errs := validateAll(t, peers, 1, [][]byte{
		[]byte("vector-A"), []byte("vector-A"), []byte("vector-B"),
	})
	// Property 3(1): the two providers with different inputs both output ⊥.
	// In this implementation every provider aborts, which is stronger.
	for i, err := range errs {
		if !errors.Is(err, proto.ErrAborted) {
			t.Errorf("peer %d: got %v, want abort", i, err)
		}
	}
}

func TestEmptyInputsAgree(t *testing.T) {
	peers := newPeers(t, 2)
	errs := validateAll(t, peers, 1, [][]byte{nil, nil})
	for i, err := range errs {
		if err != nil {
			t.Errorf("peer %d: %v", i, err)
		}
	}
}

func TestAlreadyAbortedRound(t *testing.T) {
	peers := newPeers(t, 2)
	if err := peers[0].Abort(3, "pre"); err != nil {
		t.Fatal(err)
	}
	if _, err := validateInput(context.Background(), peers[0], 3, []byte("x"), nil); !errors.Is(err, proto.ErrAborted) {
		t.Errorf("got %v, want abort", err)
	}
}

func TestSilentProviderTimesOut(t *testing.T) {
	peers := newPeers(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = validateInput(ctx, peers[i], 1, []byte("v"), nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("peer %d succeeded despite silent peer", i)
		}
	}
}
