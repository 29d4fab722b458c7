package lifecycle

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Controller is a server-side admission controller: it bounds the
// number of solves in flight, parks excess arrivals in a bounded FIFO
// wait queue, and sheds with ErrAdmission once the queue is full or
// the server is draining. Fairness is strict arrival order — a waiter
// is granted the slot freed by a finishing solve before any newcomer.
//
// The zero value is not usable; construct with NewController.
type Controller struct {
	mu          sync.Mutex
	maxInFlight int
	maxQueue    int
	inFlight    int
	queue       []*waiter
	draining    bool
	drainC      chan struct{} // closed by BeginDrain

	admitted uint64
	shed     uint64
	ewmaMs   float64        // exponentially-weighted solve duration, for Retry-After
	jitter   func() float64 // uniform [0,1) source for Retry-After spread
}

type waiter struct {
	ready chan struct{} // closed when a slot is granted
}

// NewController builds a controller admitting at most maxInFlight
// concurrent solves with at most maxQueue queued waiters. Non-positive
// arguments select 1 in flight and an empty queue (pure shed-on-busy).
func NewController(maxInFlight, maxQueue int) *Controller {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Controller{
		maxInFlight: maxInFlight,
		maxQueue:    maxQueue,
		drainC:      make(chan struct{}),
		jitter:      rand.Float64,
	}
}

// Acquire blocks until a solve slot is granted, the context is done,
// or the query is shed. On success it returns a release function the
// caller must invoke exactly once when the solve finishes (defer it).
// Shedding returns an ErrAdmission wrap; cancellation while queued
// returns an ErrCanceled wrap.
func (c *Controller) Acquire(ctx context.Context) (func(), error) {
	c.mu.Lock()
	if c.draining {
		c.shed++
		c.mu.Unlock()
		return nil, Shed("draining")
	}
	if c.inFlight < c.maxInFlight && len(c.queue) == 0 {
		c.inFlight++
		c.admitted++
		c.mu.Unlock()
		return c.releaseFunc(), nil
	}
	if len(c.queue) >= c.maxQueue {
		c.shed++
		c.mu.Unlock()
		return nil, Shed("queue full")
	}
	w := &waiter{ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	c.mu.Unlock()

	select {
	case <-w.ready:
		return c.releaseFunc(), nil
	case <-ctx.Done():
		if c.abandon(w) {
			return nil, Canceled(ctx.Err())
		}
		// Granted concurrently with the cancellation: hand the slot to
		// the next waiter and report the cancel.
		c.releaseFunc()()
		return nil, Canceled(ctx.Err())
	case <-c.drainC:
		if c.abandon(w) {
			return nil, Shed("draining")
		}
		c.releaseFunc()()
		return nil, Shed("draining")
	}
}

// abandon removes a still-queued waiter; false means the waiter was
// already granted a slot (its ready channel is closed).
func (c *Controller) abandon(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// releaseFunc builds the one-shot release closure for a granted slot.
func (c *Controller) releaseFunc() func() {
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			dur := time.Since(start)
			c.mu.Lock()
			defer c.mu.Unlock()
			ms := float64(dur.Milliseconds())
			if c.ewmaMs == 0 {
				c.ewmaMs = ms
			} else {
				c.ewmaMs = 0.8*c.ewmaMs + 0.2*ms
			}
			c.inFlight--
			if !c.draining && len(c.queue) > 0 && c.inFlight < c.maxInFlight {
				next := c.queue[0]
				c.queue = c.queue[1:]
				c.inFlight++
				c.admitted++
				close(next.ready)
			}
		})
	}
}

// BeginDrain stops admitting: every queued waiter is shed immediately
// and every future Acquire fails with ErrAdmission. In-flight solves
// keep their slots until they release them; a server waits for them
// with http.Server.Shutdown.
func (c *Controller) BeginDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	close(c.drainC)
}

// Retry-After bounds: hints are jittered ±25% and then clamped to
// [retryAfterFloor, retryAfterCeil] so a shed burst does not send every
// client back at the same instant.
const (
	retryAfterFloor = time.Second
	retryAfterCeil  = 30 * time.Second
)

// RetryAfter hints how long a shed client should wait before retrying:
// the smoothed solve duration scaled by queue pressure, spread with
// ±25% jitter, clamped to [1s, 30s]. The jitter decorrelates clients
// that were shed by the same burst — without it they all retry in
// lockstep and re-create the burst. With no history it returns a
// jittered floor-to-1.25s hint.
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms := c.ewmaMs
	if ms <= 0 {
		ms = float64(retryAfterFloor.Milliseconds())
	}
	// A shed client is behind maxQueue waiters and maxInFlight solves;
	// one smoothed solve-time per in-flight "wave" approximates the
	// backlog clearing time.
	waves := 1 + len(c.queue)/c.maxInFlight
	est := ms * float64(waves)
	est *= 0.75 + 0.5*c.jitter() // uniform in [0.75, 1.25) of the estimate
	d := time.Duration(est) * time.Millisecond
	if d < retryAfterFloor {
		return retryAfterFloor
	}
	if d > retryAfterCeil {
		return retryAfterCeil
	}
	return d
}

// ControllerStats is a point-in-time snapshot of the controller.
type ControllerStats struct {
	InFlight int    // solves currently holding a slot
	Queued   int    // waiters parked in the FIFO queue
	Admitted uint64 // total slots granted since construction
	Shed     uint64 // total queries turned away
	Draining bool   // BeginDrain has been called
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() ControllerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ControllerStats{
		InFlight: c.inFlight,
		Queued:   len(c.queue),
		Admitted: c.admitted,
		Shed:     c.shed,
		Draining: c.draining,
	}
}
