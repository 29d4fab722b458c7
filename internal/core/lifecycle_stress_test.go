package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/sketch"
)

// maxPollsAfterCancel bounds how many times a canceled warm solve may
// still poll its context while it unwinds.
const maxPollsAfterCancel = 64

// settleGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers) or the deadline passes,
// returning the final count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationStress races concurrent solves — half of them
// canceled mid-flight — and then checks the three invariants the
// lifecycle layer promises: canceled queries report ErrCanceled (never
// a corrupt result), no goroutine outlives its query, and the shared
// partition-tree cache stays consistent (exactly one tree, still
// serving hits). Run under -race this also proves the checkpoint
// plumbing doesn't data-race with the solver's own parallelism.
func TestCancellationStress(t *testing.T) {
	db := lcDB(t, 20000)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	prep.SketchCache = cache
	opts := Options{Strategy: SketchRefineStrategy, SketchCache: cache}
	// Warm the tree so the raced solves measure solve cancellation, not
	// build coalescing (cancel_test.go covers cold builds).
	if _, err := prep.RunContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	cancels := make([]context.CancelFunc, workers)
	for i := 0; i < workers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			_, errs[i] = prep.RunContext(ctx, opts)
		}(i, ctx)
	}
	// Cancel the odd half mid-flight; the even half runs to completion.
	time.Sleep(2 * time.Millisecond)
	for i := 1; i < workers; i += 2 {
		cancels[i]()
	}
	wg.Wait()
	for i := 0; i < workers; i += 2 {
		cancels[i]()
	}

	for i, err := range errs {
		if i%2 == 0 {
			if err != nil {
				t.Errorf("uncanceled worker %d: %v", i, err)
			}
		} else if err != nil && !errors.Is(err, lifecycle.ErrCanceled) {
			// nil is fine — the solve may have finished before the cancel.
			t.Errorf("canceled worker %d: %v, want nil or ErrCanceled", i, err)
		}
	}
	if n := settleGoroutines(baseline); n > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
	// Cache consistency: still exactly one tree, and it still serves.
	if got := cache.Len(); got != 1 {
		t.Errorf("cache entries = %d, want 1", got)
	}
	hitsBefore := cache.Stats().Hits
	if res, err := prep.RunContext(context.Background(), opts); err != nil || len(res.Packages) == 0 {
		t.Fatalf("post-stress solve: packages=%v err=%v", res, err)
	}
	if cache.Stats().Hits <= hitsBefore {
		t.Error("post-stress solve missed the cache")
	}
}

// TestCanceledBuildLeavesCacheConsistent cancels a solve during the
// offline partition-tree build (a deadline shorter than the build) and
// checks the cache discards the partial tree: no entry is published,
// and a follow-up uncanceled solve rebuilds cleanly.
func TestCanceledBuildLeavesCacheConsistent(t *testing.T) {
	db := lcDB(t, 50000)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	prep.SketchCache = cache
	opts := Options{Strategy: SketchRefineStrategy, SketchCache: cache}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := prep.RunContext(ctx, opts)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // land inside the cold build
	cancel()
	if err := <-done; err != nil && !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("canceled build = %v, want nil or ErrCanceled", err)
	} else if err != nil && cache.Len() != 0 {
		t.Errorf("canceled build published %d cache entries", cache.Len())
	}
	// The cache recovers: a clean solve builds and publishes one tree.
	if res, err := prep.RunContext(context.Background(), opts); err != nil || len(res.Packages) == 0 {
		t.Fatalf("rebuild solve: err=%v", err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache entries after rebuild = %d, want 1", cache.Len())
	}
}

// pollCountingCtx is a context that counts its cancellation polls — the
// engine polls through both Done and Err — and cancels itself at the
// fireAt-th one (never, when fireAt is 0).
type pollCountingCtx struct {
	context.Context
	fireAt    int64
	polls     atomic.Int64
	afterFire atomic.Int64 // polls that found the context already canceled
	once      sync.Once
	done      chan struct{}
	firedAt   time.Time
}

func newPollCountingCtx(fireAt int64) *pollCountingCtx {
	return &pollCountingCtx{Context: context.Background(), fireAt: fireAt, done: make(chan struct{})}
}

func (c *pollCountingCtx) fired() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func (c *pollCountingCtx) poll() {
	if c.fired() {
		c.afterFire.Add(1)
	} else if n := c.polls.Add(1); c.fireAt > 0 && n >= c.fireAt {
		c.once.Do(func() {
			c.firedAt = time.Now()
			close(c.done)
		})
	}
}

func (c *pollCountingCtx) Done() <-chan struct{} {
	c.poll()
	return c.done
}

func (c *pollCountingCtx) Err() error {
	c.poll()
	if c.fired() {
		return context.Canceled
	}
	return nil
}

// TestCanceled1MReturnsPromptly states cooperative cancellation at scale
// as a property of the warm solve over a 1M-row partition tree: wherever
// in the solve — root sketch, level descent, refine wave, bound pass —
// the cancel lands, the solve starts no further work, so it returns
// ErrCanceled within a bounded number of further polls. The wall-clock
// latency that bound buys is logged, not gated (the benchmark owns the
// milliseconds). Short mode skips it (the dataset generation and warm
// build dominate the test's wall time).
func TestCanceled1MReturnsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row dataset build in -short mode")
	}
	db := lcDB(t, 1000000)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	prep.SketchCache = cache
	opts := Options{Strategy: SketchRefineStrategy, SketchCache: cache}
	// Two runs warm it: the first builds the tree, the second — the
	// objective's second sight on it — sorts the leaves the tree then keeps.
	for range 2 {
		if _, err := prep.RunContext(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	}
	// solve runs the warm solve under ctx with the 5 s backstop.
	solve := func(ctx context.Context) (*Result, error) {
		t.Helper()
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := prep.RunContext(ctx, opts)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-time.After(5 * time.Second):
			t.Fatal("warm 1M solve did not return within 5s")
			return nil, nil
		}
	}
	counting := newPollCountingCtx(0)
	if _, err := solve(counting); err != nil {
		t.Fatal(err)
	}
	total := counting.polls.Load()
	if total < 100 {
		t.Fatalf("the warm solve polled its context %d times; the spread below needs a solve that polls throughout", total)
	}
	for _, fireAt := range []int64{1, total / 20, total / 5, 2 * total / 5, 3 * total / 5, 4 * total / 5, 19 * total / 20} {
		ctx := newPollCountingCtx(fireAt)
		_, err := solve(ctx)
		returned := time.Now()
		if !ctx.fired() {
			t.Fatalf("fireAt=%d of %d: solve finished in %d polls without reaching the firing poll", fireAt, total, ctx.polls.Load())
		}
		if !errors.Is(err, lifecycle.ErrCanceled) {
			t.Errorf("fireAt=%d of %d: err = %v, want ErrCanceled", fireAt, total, err)
		}
		// Unwinding polls once per pending frame — the branch loop, each
		// refine worker, the bound stage in flight — never once per
		// remaining leaf or simplex iteration.
		if after := ctx.afterFire.Load(); after > maxPollsAfterCancel {
			t.Errorf("fireAt=%d of %d: %d polls after the cancel fired (limit %d); the solve kept working", fireAt, total, after, maxPollsAfterCancel)
		}
		t.Logf("fireAt=%d of %d: %d polls after firing, cancel-to-return %v", fireAt, total, ctx.afterFire.Load(), returned.Sub(ctx.firedAt))
	}
	// A firing point inside the weighing, which the warm Prepared above did
	// once and kept: a query over the same tree with a selection no query
	// has folded yet, so that its branch weighing folds a million terms —
	// some 120 polls — under the solve's context. The cancel lands in the
	// fold; the fold ends there and is not kept, nor is the weighing.
	weigh, err := Prepare(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND AVG(P.calories + 1) <= 900 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`)
	if err != nil {
		t.Fatal(err)
	}
	weigh.SketchCache = cache
	folds := weigh.Instance.Passes.Folds()
	ctx := newPollCountingCtx(60)
	_, err = weigh.RunContext(ctx, opts)
	returned := time.Now()
	if !errors.Is(err, lifecycle.ErrCanceled) {
		t.Errorf("cancel inside the weighing: err = %v, want ErrCanceled", err)
	}
	if got := weigh.Instance.Passes.Folds() - folds; got != 1 || weigh.Sketch.Weighed() != 0 {
		t.Errorf("the 60th poll fell outside the weighing's fold: %d folds begun, %d branches weighed", got, weigh.Sketch.Weighed())
	}
	if after := ctx.afterFire.Load(); after > maxPollsAfterCancel {
		t.Errorf("cancel inside the weighing: %d polls after the cancel fired (limit %d)", after, maxPollsAfterCancel)
	}
	t.Logf("cancel inside the weighing: %d polls after firing, cancel-to-return %v", ctx.afterFire.Load(), returned.Sub(ctx.firedAt))
	if res, err := weigh.RunContext(context.Background(), opts); err != nil || len(res.Packages) == 0 {
		t.Fatalf("solve after the canceled weighing: err=%v", err)
	}
	if got := weigh.Instance.Passes.Folds() - folds; got != 2 || weigh.Sketch.Weighed() != 1 {
		t.Errorf("after a canceled and a clean solve: %d folds of the new selection, %d branches weighed; want 2 (the canceled fold is not kept) and 1", got, weigh.Sketch.Weighed())
	}

	// The warm tree survived the cancels.
	hits := cache.Stats().Hits
	if res, err := solve(context.Background()); err != nil || len(res.Packages) == 0 {
		t.Fatalf("post-cancel solve: err=%v", err)
	}
	if cache.Stats().Hits <= hits {
		t.Error("post-cancel solve missed the cache")
	}
}
