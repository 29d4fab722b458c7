package sketch

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bound"
	"repro/internal/lifecycle"
	"repro/internal/lp"
	"repro/internal/search"
)

// firingCtx counts Err calls and reports cancellation from the fireAt-th on.
type firingCtx struct {
	context.Context
	polls  atomic.Int64
	fireAt int64
}

func (c *firingCtx) Err() error {
	if n := c.polls.Add(1); c.fireAt > 0 && n >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// A tree keeps an objective's leaf order from the objective's second
// sight on, the sort polls its context every search.PollRows tuples, and a
// canceled sort is neither kept nor counted as a sight that keeps nothing:
// the next asker sorts again and keeps it.
func TestLeafOrderPromotesOnReuseAndDropsCanceledSorts(t *testing.T) {
	const n = 4*search.PollRows + 100
	rng := rand.New(rand.NewSource(3))
	objW := make([]float64, n)
	for i := range objW {
		objW[i] = float64(rng.Intn(50)) // ties galore: the sort must be stable
	}
	perm := rng.Perm(n)
	var leaves []Node
	for a := 0; a < n; a += 3000 {
		tuples := slices.Clone(perm[a:min(a+3000, n)])
		slices.Sort(tuples)
		leaves = append(leaves, Node{Tuples: tuples})
	}
	tree := &Tree{Tau: 3000, Depth: 1, Levels: [][]Node{leaves}, orders: new(leafOrders)}
	want := make([][]int, len(leaves))
	for g, leaf := range leaves {
		want[g] = slices.Clone(leaf.Tuples)
		bound.SortByObjective(want[g], objW, lp.Minimize)
	}
	order := func(ctx context.Context) ([][]int, error) {
		return tree.leafOrder(ctx, "MINIMIZE w", objW, lp.Minimize)
	}
	kept := func() bool { return tree.orders.slots["MINIMIZE w"] != nil }

	counting := &firingCtx{Context: context.Background()}
	got, err := order(counting)
	if err != nil || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("first sight: err %v, or not the objective order", err)
	}
	if kept() || tree.Sorts() != 1 {
		t.Fatalf("first sight: kept=%v after %d sorts; an objective asked once keeps nothing", kept(), tree.Sorts())
	}
	// A poll at the first leaf, then at the first leaf after every
	// search.PollRows tuples.
	if polls := counting.polls.Load(); polls < n/(search.PollRows+3000) || polls > (n+search.PollRows-1)/search.PollRows {
		t.Errorf("%d polls sorting %d tuples in leaves of 3,000, want about one per %d", polls, n, search.PollRows)
	}

	fired := &firingCtx{Context: context.Background(), fireAt: 3}
	if _, err := order(fired); !errors.Is(err, lifecycle.ErrCanceled) || fired.polls.Load() != 3 {
		t.Fatalf("canceled sort: err %v after %d polls, want ErrCanceled at the firing poll", err, fired.polls.Load())
	}
	if got, err = order(nil); err != nil || !slices.EqualFunc(got, want, slices.Equal) || tree.Sorts() != 3 {
		t.Fatalf("after a canceled sort: err %v, %d sorts; the next asker sorts and keeps", err, tree.Sorts())
	}
	again, err := order(nil)
	if err != nil || tree.Sorts() != 3 || &again[0][0] != &got[0][0] {
		t.Errorf("a kept order was sorted again (%d sorts, err %v)", tree.Sorts(), err)
	}
	if flat := tree.flatten(); flat.orders != tree.orders {
		t.Error("the flattened view does not share the tree's orders")
	}
}
