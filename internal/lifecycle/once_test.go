package lifecycle

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestOnceComputesOnceAcrossGoroutines(t *testing.T) {
	var o Once[int]
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := o.Get(context.Background(), func() (*int, error) {
				calls.Add(1)
				<-release
				n := 42
				return &n, nil
			})
			if err != nil || *v != 42 {
				t.Errorf("Get = %v, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	if v, err := o.Get(nil, func() (*int, error) { t.Error("computed again"); return nil, nil }); err != nil || *v != 42 {
		t.Errorf("Get after the value was kept = %v, %v", v, err)
	}
}

func TestOnceDoesNotKeepAFailure(t *testing.T) {
	var o Once[int]
	boom := errors.New("boom")
	if _, err := o.Get(nil, func() (*int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := o.Get(nil, func() (*int, error) { n := 7; return &n, nil })
	if err != nil || *v != 7 {
		t.Fatalf("second Get = %v, %v", v, err)
	}
}

// A waiter leaves when its own context ends, while the computation it was
// waiting on goes on and is kept for the next caller.
func TestOnceWaiterGivesUpOnItsOwnContext(t *testing.T) {
	var o Once[int]
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		o.Get(context.Background(), func() (*int, error) {
			close(started)
			<-release
			n := 1
			return &n, nil
		})
	}()
	<-started
	if o.Peek() != nil {
		t.Error("Peek saw a value while its computation was in flight")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.Get(ctx, func() (*int, error) { t.Error("the waiter computed"); return nil, nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("waiter err = %v, want ErrCanceled", err)
	}
	close(release)
	<-done
	if v := o.Peek(); v == nil || *v != 1 {
		t.Fatalf("Peek after the computation ended = %v", v)
	}
	if v, err := o.Get(nil, func() (*int, error) { t.Error("computed again"); return nil, nil }); err != nil || *v != 1 {
		t.Fatalf("Get after the computation ended = %v, %v", v, err)
	}
}

// A waiter whose computer fails computes for itself.
func TestOnceWaiterTakesOverAfterAFailure(t *testing.T) {
	var o Once[int]
	started, release := make(chan struct{}), make(chan struct{})
	go o.Get(nil, func() (*int, error) {
		close(started)
		<-release
		return nil, errors.New("canceled")
	})
	<-started
	got := make(chan int)
	go func() {
		v, _ := o.Get(nil, func() (*int, error) { n := 9; return &n, nil })
		got <- *v
	}()
	close(release)
	if v := <-got; v != 9 {
		t.Fatalf("takeover value %d", v)
	}
}

func TestOncePanicStrandsNobody(t *testing.T) {
	var o Once[int]
	func() {
		defer func() { recover() }()
		o.Get(nil, func() (*int, error) { panic("in compute") })
	}()
	v, err := o.Get(nil, func() (*int, error) { n := 3; return &n, nil })
	if err != nil || *v != 3 {
		t.Fatalf("Get after a panic = %v, %v", v, err)
	}
}
