package sketch

import (
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestPanickingAcquisitionEndsItsFlight: an acquisition that panics must
// still end its flight. A caller parked on it is released and retries as
// the builder, and a later acquisition of the key builds instead of
// waiting on a flight nobody will finish.
func TestPanickingAcquisitionEndsItsFlight(t *testing.T) {
	c := NewCache(0)
	k := Key{Fingerprint: 1, Tau: 4, Depth: 1}
	want := &Tree{}
	build := func() (*Tree, error) { return want, nil }

	// finish runs fn in a goroutine and reports its result, or fails the
	// test once it has waited too long for it.
	type outcome struct {
		tree      *Tree
		coalesced bool
		err       error
	}
	finish := func(fn func() outcome) outcome {
		t.Helper()
		done := make(chan outcome, 1)
		go func() { done <- fn() }()
		select {
		case o := <-done:
			return o
		case <-time.After(5 * time.Second):
			t.Fatal("acquisition still waiting on a flight whose builder panicked")
			return outcome{}
		}
	}

	release := make(chan struct{})
	started := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.do(nil, k, func() (*Tree, error) {
			close(started)
			<-release
			panic("injected")
		})
	}()
	<-started
	joined := make(chan outcome, 1)
	go func() {
		tree, coalesced, err := c.do(nil, k, build)
		joined <- outcome{tree, coalesced, err}
	}()
	waitParked(t)
	close(release)
	if r := <-panicked; r != "injected" {
		t.Fatalf("do recovered the builder's panic (%v); it must go on up to the solve's recovery", r)
	}
	o := finish(func() outcome { return <-joined })
	if o.err != nil || o.tree != want || o.coalesced {
		t.Fatalf("parked joiner: tree %p (want %p), coalesced %v, err %v; it must retry as the builder", o.tree, want, o.coalesced, o.err)
	}
	o = finish(func() outcome {
		tree, coalesced, err := c.do(nil, k, build)
		return outcome{tree, coalesced, err}
	})
	if o.err != nil || o.tree != want || o.coalesced {
		t.Fatalf("later acquisition: tree %p (want %p), coalesced %v, err %v", o.tree, want, o.coalesced, o.err)
	}
	if len(c.flights) != 0 {
		t.Fatalf("%d flights left open", len(c.flights))
	}
}

// parkedInDo matches a goroutine blocked in a select under do — the
// flight's lifecycle.Once wait: a joiner waiting on someone else's flight.
var parkedInDo = regexp.MustCompile(`goroutine \d+ \[select[^\]]*\]:\n(?:.+\n\t.+\n)*?repro/internal/sketch\.\(\*Cache\)\.do\(`)

// waitParked returns once some goroutine is parked on a flight in do.
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if parkedInDo.Match(buf[:runtime.Stack(buf, true)]) {
			return
		}
	}
	t.Fatal("the joiner never parked on the flight")
}
