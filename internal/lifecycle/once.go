package lifecycle

import (
	"context"
	"sync"
)

// Once computes a value at most once for all the goroutines that ask for
// it — except that a failed computation, in practice a canceled one, is
// not kept: whoever asks next starts it over. A goroutine that finds a
// computation in flight waits for it without holding a lock, and gives up
// when its own context ends: one query's cancellation never waits out
// another query's work. The zero value is ready to use.
type Once[T any] struct {
	mu   sync.Mutex
	val  *T
	busy chan struct{} // non-nil while a computation is in flight; closed when it ends
}

// Get returns the kept value, computing it with compute when nobody has
// yet. compute runs under the caller's context, not under the Once's
// lock. ctx may be nil.
func (o *Once[T]) Get(ctx context.Context, compute func() (*T, error)) (*T, error) {
	for {
		o.mu.Lock()
		if o.val != nil {
			o.mu.Unlock()
			return o.val, nil
		}
		busy := o.busy
		if busy == nil {
			busy = make(chan struct{})
			o.busy = busy
			o.mu.Unlock()
			return o.run(busy, compute)
		}
		o.mu.Unlock()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-busy: // kept now, or failed and ours to start over
		case <-done:
			return nil, ContextErr(ctx)
		}
	}
}

// Peek returns the kept value, or nil while none is kept — a computation
// in flight included. It never computes.
func (o *Once[T]) Peek() *T {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.val
}

// run computes the value with the in-flight marker up and takes the marker
// down however compute ends, a panic included, so no waiter is stranded.
func (o *Once[T]) run(busy chan struct{}, compute func() (*T, error)) (v *T, err error) {
	defer func() {
		o.mu.Lock()
		if err == nil {
			o.val = v
		}
		o.busy = nil
		o.mu.Unlock()
		close(busy)
	}()
	return compute()
}
