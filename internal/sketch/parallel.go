package sketch

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers resolves Options.Parallelism: an explicit positive value
// wins, 0 means one worker per available CPU (GOMAXPROCS).
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(i) for every i in [0, n) across at most workers
// goroutines, returning when all calls have finished. Indexes are
// handed out through an atomic counter, so uneven per-index costs
// (sub-MILPs of very different sizes) balance across workers. The
// caller is responsible for making the calls independent: fn must only
// write state owned by index i. With workers <= 1 the loop runs inline,
// byte-for-byte identical to the concurrent schedule — parallelism is a
// scheduling choice, never an algorithmic one.
func parallelFor(workers, n int, fn func(i int)) {
	parallelForWorker(workers, n, func(_, i int) { fn(i) })
}

// parallelForWorker is parallelFor for callers that keep one scratch per
// worker: worker, in [0, max(workers, 1)), names the goroutine making
// the call.
func parallelForWorker(workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// limiter is a counting semaphore bounding the goroutines a recursive
// split may fork. A nil limiter admits nobody, so the recursion stays
// serial.
type limiter chan struct{}

// newLimiter returns a limiter admitting workers-1 forks (the calling
// goroutine is the remaining worker), or nil when workers <= 1.
func newLimiter(workers int) limiter {
	if workers <= 1 {
		return nil
	}
	return make(limiter, workers-1)
}

// tryAcquire claims a fork slot without blocking.
func (l limiter) tryAcquire() bool {
	if l == nil {
		return false
	}
	select {
	case l <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a fork slot.
func (l limiter) release() { <-l }
