package lifecycle

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
	}{
		{Canceled(context.Canceled), ErrCanceled},
		{Canceled(context.DeadlineExceeded), ErrCanceled},
		{Canceled(nil), ErrCanceled},
		{Infeasible("COUNT lower bound 5 > upper bound 2"), ErrInfeasible},
		{Infeasible(""), ErrInfeasible},
		{BudgetExceeded(2<<20, 1<<20), ErrBudgetExceeded},
		{Shed("queue full"), ErrAdmission},
		{Shed(""), ErrAdmission},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("%v does not match its sentinel %v", c.err, c.sentinel)
		}
	}
	// Causes stay visible through the wrap.
	if !errors.Is(Canceled(context.Canceled), context.Canceled) {
		t.Error("Canceled(context.Canceled) lost its cause")
	}
	if !errors.Is(Canceled(context.DeadlineExceeded), context.DeadlineExceeded) {
		t.Error("Canceled(context.DeadlineExceeded) lost its cause")
	}
	// Sentinels stay distinct.
	if errors.Is(Shed("x"), ErrCanceled) || errors.Is(Infeasible("x"), ErrBudgetExceeded) {
		t.Error("sentinels bleed into each other")
	}
}

func TestContextErr(t *testing.T) {
	if err := ContextErr(nil); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if err := ContextErr(context.Background()); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ContextErr(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx mapped to %v", err)
	}
}

func TestBudgetExceededMessage(t *testing.T) {
	err := BudgetExceeded(3<<30, 512<<20)
	for _, want := range []string{"3.0 GB", "512.0 MB"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("message %q missing %q", err, want)
		}
	}
}

// doneCounter counts Done calls, the unit the poll-cadence tests of the
// solver layers count in.
type doneCounter struct {
	context.Context
	calls int
}

func (c *doneCounter) Done() <-chan struct{} {
	c.calls++
	return c.Context.Done()
}

// TestPoll: no context is no poll; otherwise each poll reads Done once
// and reports the cancellation as soon as it happens.
func TestPoll(t *testing.T) {
	if Poll(nil) != nil {
		t.Fatal("a nil context must give a nil poll")
	}
	inner, cancel := context.WithCancel(context.Background())
	ctx := &doneCounter{Context: inner}
	poll := Poll(ctx)
	if poll() || poll() {
		t.Fatal("poll reported a live context done")
	}
	cancel()
	if !poll() {
		t.Fatal("poll missed the cancellation")
	}
	if ctx.calls != 3 {
		t.Fatalf("3 polls called Done %d times, want once each", ctx.calls)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2 << 10: "2.0 KB",
		3 << 20: "3.0 MB",
		5 << 30: "5.0 GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestControllerAdmitAndRelease(t *testing.T) {
	c := NewController(2, 0)
	rel1, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.InFlight != 2 || st.Admitted != 2 {
		t.Fatalf("stats after two acquires: %+v", st)
	}
	// Third arrival with an empty queue is shed.
	if _, err := c.Acquire(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("expected shed, got %v", err)
	}
	rel1()
	rel1() // double release is a no-op
	if st := c.Stats(); st.InFlight != 1 || st.Shed != 1 {
		t.Fatalf("stats after release: %+v", st)
	}
	rel2()
}

func TestControllerQueueFIFO(t *testing.T) {
	c := NewController(1, 2)
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Stagger arrivals so the FIFO order is deterministic.
			time.Sleep(time.Duration(i) * 20 * time.Millisecond)
			r, err := c.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			r()
		}(i)
	}
	close(start)
	time.Sleep(80 * time.Millisecond) // both queued now
	if st := c.Stats(); st.Queued != 2 {
		t.Fatalf("expected 2 queued, got %+v", st)
	}
	// Queue full: next arrival is shed.
	if _, err := c.Acquire(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("expected shed with full queue, got %v", err)
	}
	rel()
	wg.Wait()
	close(order)
	var got []int
	for i := range order {
		got = append(got, i)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("grant order %v, want [1 2]", got)
	}
}

func TestControllerCancelWhileQueued(t *testing.T) {
	c := NewController(1, 4)
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx)
		done <- err
	}()
	for c.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	err = <-done
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel returned %v", err)
	}
	if st := c.Stats(); st.Queued != 0 {
		t.Fatalf("abandoned waiter still queued: %+v", st)
	}
	rel()
	// The slot is free again for the next arrival.
	rel2, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

func TestControllerDrain(t *testing.T) {
	c := NewController(1, 4)
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background())
		queued <- err
	}()
	for c.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	c.BeginDrain()
	if err := <-queued; !errors.Is(err, ErrAdmission) {
		t.Fatalf("queued waiter at drain returned %v", err)
	}
	// New arrivals are shed while draining.
	if _, err := c.Acquire(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("acquire while draining returned %v", err)
	}
	// The in-flight solve keeps its slot until it releases it.
	if st := c.Stats(); !st.Draining || st.InFlight != 1 {
		t.Fatalf("draining stats: %+v", st)
	}
	rel()
	if st := c.Stats(); !st.Draining || st.InFlight != 0 {
		t.Fatalf("post-drain stats: %+v", st)
	}
}

func TestRetryAfterBounds(t *testing.T) {
	c := NewController(1, 0)
	if got := c.RetryAfter(); got < time.Second || got >= 1250*time.Millisecond {
		t.Fatalf("no-history hint %v, want [1s, 1.25s)", got)
	}
	rel, _ := c.Acquire(context.Background())
	rel()
	got := c.RetryAfter()
	if got < time.Second || got > 30*time.Second {
		t.Fatalf("hint %v outside [1s, 30s]", got)
	}
	// A huge smoothed duration clamps to 30s even at maximum jitter.
	c.mu.Lock()
	c.ewmaMs = 10 * 60 * 1000
	c.mu.Unlock()
	if got := c.RetryAfter(); got != 30*time.Second {
		t.Fatalf("hint %v, want 30s clamp", got)
	}
	// And the floor holds at minimum jitter.
	c.mu.Lock()
	c.ewmaMs = 1
	c.jitter = func() float64 { return 0 }
	c.mu.Unlock()
	if got := c.RetryAfter(); got != time.Second {
		t.Fatalf("hint %v, want 1s floor", got)
	}
}

// TestRetryAfterJitterSpreads checks shed clients are decorrelated: the
// same controller state yields different hints across calls.
func TestRetryAfterJitterSpreads(t *testing.T) {
	c := NewController(1, 0)
	c.mu.Lock()
	c.ewmaMs = 10 * 1000 // 10s estimate, far from both clamps
	c.mu.Unlock()
	seen := make(map[time.Duration]bool)
	for i := 0; i < 32; i++ {
		d := c.RetryAfter()
		if d < 7500*time.Millisecond || d >= 12500*time.Millisecond {
			t.Fatalf("hint %v outside jitter band [7.5s, 12.5s)", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 hints collapsed to %d distinct values", len(seen))
	}
}

func TestHealthRegistry(t *testing.T) {
	h := NewHealth()
	if deg, _ := h.Degraded(); deg {
		t.Fatal("fresh registry reports degraded")
	}
	h.Report("store", "load failed; tree rebuilt")
	h.Report("cache", "probe failed")
	h.Report("store", "save failed")
	deg, reasons := h.Degraded()
	if !deg || len(reasons) != 2 {
		t.Fatalf("degraded=%v reasons=%v", deg, reasons)
	}
	if reasons[0] != "cache: probe failed" {
		t.Fatalf("reasons not sorted: %v", reasons)
	}
	snap := h.Snapshot()
	if snap["store"].Events != 2 || snap["store"].OK {
		t.Fatalf("store state %+v", snap["store"])
	}
	h.ClearAll()
	if deg, _ := h.Degraded(); deg {
		t.Fatal("degraded after ClearAll")
	}
	if snap := h.Snapshot(); snap["store"].Events != 2 {
		t.Fatalf("ClearAll lost event counter: %+v", snap["store"])
	}
}

func TestInternalWrap(t *testing.T) {
	err := Internal(errors.New("panic: boom"))
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("Internal() does not match ErrInternal: %v", err)
	}
	if !errors.Is(Internal(nil), ErrInternal) {
		t.Fatal("Internal(nil) does not match ErrInternal")
	}
}

// TestControllerStress hammers Acquire/release from many goroutines
// (run under -race) and checks the in-flight bound is never violated.
func TestControllerStress(t *testing.T) {
	const workers = 32
	c := NewController(4, workers)
	var over sync.Once
	var violated bool
	var active int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				rel, err := c.Acquire(context.Background())
				if err != nil {
					continue
				}
				mu.Lock()
				active++
				if active > 4 {
					over.Do(func() { violated = true })
				}
				mu.Unlock()
				time.Sleep(time.Microsecond)
				mu.Lock()
				active--
				mu.Unlock()
				rel()
			}
		}()
	}
	wg.Wait()
	if violated {
		t.Fatal("in-flight bound violated")
	}
	if st := c.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
}
