package sketch_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/value"
)

// Recipes columns the corpus mutates.
const (
	colCuisine  = 2
	colCalories = 5
	colProtein  = 6
)

const vacationQuery = `
	SELECT PACKAGE(V) AS P FROM vacation V
	SUCH THAT COUNT(*) = 3 AND SUM(P.price) <= 3000 AND SUM(P.dist) <= 10
	MAXIMIZE SUM(P.comfort)`

func vacationPrep(t *testing.T) *core.Prepared {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadVacation(db, "vacation", dataset.VacationConfig{Flights: 900, Hotels: 1400, Cars: 500, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(db, vacationQuery)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// withRows is the instance over a mutated copy of its candidate rows:
// mutate edits one cell (row r, column c) at a time and returns the new
// datum.
func withRows(inst *search.Instance, mutate func(r, c int, v value.V) value.V) *search.Instance {
	rows := make([]schema.Row, len(inst.Rows))
	for r, row := range inst.Rows {
		rows[r] = make(schema.Row, len(row))
		for c, v := range row {
			rows[r][c] = mutate(r, c, v)
		}
	}
	out := *inst
	out.Rows = rows
	return &out
}

// TestBuildTreeMatchesReference pins "same trees, same bytes": over a
// seeded corpus the columnar builder returns exactly the tree the
// row-at-a-time reference builder does — reflect.DeepEqual and equal
// persisted encodings — at every depth, leaf size and worker count.
func TestBuildTreeMatchesReference(t *testing.T) {
	recipes := recipesPrep(t, 6000).Instance // the WHERE keeps ≈ 3,900 rows
	vacation := vacationPrep(t).Instance
	attrSet := func(inst *search.Instance) map[int]bool {
		set := map[int]bool{}
		for _, a := range sketch.PartitionAttrsForTest(inst) {
			set[a] = true
		}
		return set
	}
	type variant struct {
		name string
		inst *search.Instance
	}
	var corpus []variant
	for _, base := range []variant{{"recipes", recipes}, {"vacation", vacation}} {
		attrs := attrSet(base.inst)
		if len(attrs) < 2 {
			t.Fatalf("%s: split attributes %v, want at least two", base.name, attrs)
		}
		rng := rand.New(rand.NewSource(99))
		add := func(name string, mutate func(r, c int, v value.V) value.V) {
			corpus = append(corpus, variant{base.name + "/" + name, withRows(base.inst, mutate)})
		}
		add("plain", func(_, _ int, v value.V) value.V { return v })
		add("nulls", func(_, c int, v value.V) value.V {
			if c > 0 && rng.Intn(8) == 0 {
				return value.Null()
			}
			return v
		})
		add("heavy-ties", func(_, c int, v value.V) value.V {
			if f, ok := v.AsFloat(); ok && attrs[c] {
				return value.Float(math.Floor(f/300) * 300)
			}
			return v
		})
		add("all-constant", func(_, c int, v value.V) value.V {
			if attrs[c] {
				return value.Float(7)
			}
			return v
		})
		add("constant-tail", func(r, c int, v value.V) value.V {
			if attrs[c] && r%3 != 0 { // two thirds of the rows share every attribute value
				return value.Float(-1)
			}
			return v
		})
		add("mixed-int-float", func(r, c int, v value.V) value.V {
			if f, ok := v.AsFloat(); ok && c > 0 && (r+c)%2 == 0 {
				return value.Int(int64(f))
			}
			return v
		})
		add("non-numeric-split-attr", func(r, c int, v value.V) value.V {
			// The attribute sample reads the first 64 rows; past it the
			// column may hold anything, and reads as 0 where it is not a
			// number.
			if attrs[c] && r >= 64 && rng.Intn(5) == 0 {
				return value.Str(fmt.Sprintf("n/a %d", rng.Intn(3)))
			}
			return v
		})
		add("colliding-modes", func(r, c int, v value.V) value.V {
			if v.Kind() != value.KindString {
				return v
			}
			switch rng.Intn(4) {
			case 0:
				return value.Null()
			case 1:
				return value.Str("NULL")
			case 2:
				return value.Int(1)
			default:
				return value.Str("1")
			}
		})
	}
	for _, v := range corpus {
		for depth := 1; depth <= 3; depth++ {
			for _, tau := range []int{1, 7, 64, 256} {
				opts := sketch.Options{MaxPartitionSize: tau, Depth: depth, Seed: 7}
				want := sketch.ReferenceBuildTree(v.inst, opts)
				key := sketch.KeyFor(v.inst, opts)
				wantBytes := sketch.EncodeTreeForTest(key, want)
				for _, par := range []int{1, 2, 8} {
					opts.Parallelism = par
					got := sketch.BuildTree(v.inst, opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s depth=%d tau=%d workers=%d: tree differs from the reference builder's (%d vs %d leaves)",
							v.name, depth, tau, par, len(got.Leaves()), len(want.Leaves()))
					}
					if !bytes.Equal(sketch.EncodeTreeForTest(key, got), wantBytes) {
						t.Fatalf("%s depth=%d tau=%d workers=%d: persisted bytes differ from the reference builder's", v.name, depth, tau, par)
					}
				}
			}
		}
	}
}

// singleLeafRep builds a one-leaf tree over the instance and returns
// the leaf's representative.
func singleLeafRep(t *testing.T, inst *search.Instance) schema.Row {
	t.Helper()
	tree := sketch.BuildTree(inst, sketch.Options{MaxPartitionSize: len(inst.Rows), Seed: 1})
	if len(tree.Leaves()) != 1 {
		t.Fatalf("%d leaves, want 1", len(tree.Leaves()))
	}
	return tree.Leaves()[0].Rep
}

// TestModeCountsByIdentity: the mode tells values apart by kind and
// payload, not by how they print — NULL and the string 'NULL', or
// Int(1) and Str("1"), each count on their own, and the winner does not
// depend on scan order. (Keyed on String(), 'NULL' below would collect
// six votes and beat 'thai'; '1' would collect four and beat 'x'.)
func TestModeCountsByIdentity(t *testing.T) {
	base := recipesPrep(t, 40).Instance
	base = withRows(base, func(_, _ int, v value.V) value.V { return v })
	base.Rows, base.IDs = base.Rows[:10], base.IDs[:10]
	for name, tc := range map[string]struct {
		cells []value.V
		want  value.V
	}{
		"NULL vs 'NULL'": {
			cells: []value.V{
				value.Null(), value.Str("NULL"), value.Str("thai"), value.Null(), value.Str("NULL"),
				value.Str("thai"), value.Null(), value.Str("NULL"), value.Str("thai"), value.Str("thai"),
			},
			want: value.Str("thai"),
		},
		"Int(1) vs '1'": {
			cells: []value.V{
				value.Int(1), value.Str("1"), value.Str("x"), value.Int(1), value.Str("1"),
				value.Str("x"), value.Str("x"), value.Null(), value.Null(), value.Str("y"),
			},
			want: value.Str("x"),
		},
	} {
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 20; round++ {
			perm := rng.Perm(len(tc.cells))
			inst := withRows(base, func(r, c int, v value.V) value.V {
				if c == colCuisine {
					return tc.cells[perm[r]]
				}
				return v
			})
			if got := singleLeafRep(t, inst)[colCuisine]; got != tc.want {
				t.Fatalf("%s, scan order %v: mode = %s (%s), want %s", name, perm, got.SQLString(), got.Kind(), tc.want.SQLString())
			}
		}
	}
	// The patched-tree merge over child representatives draws the same
	// line.
	children := []sketch.Node{
		{Rep: schema.Row{value.Null()}},
		{Rep: schema.Row{value.Str("NULL")}},
		{Rep: schema.Row{value.Str("thai")}},
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		if got := sketch.ChildModeValueForTest(children, []int{3, 3, 4}, order, 0); got != value.Str("thai") {
			t.Fatalf("child mode over %v = %s, want 'thai'", order, got.SQLString())
		}
	}
}

// TestRowHashAllocatesNothing: hashing a candidate row builds no hash
// object and no buffer.
func TestRowHashAllocatesNothing(t *testing.T) {
	row := dataset.Recipes(dataset.RecipesConfig{N: 1, Seed: 3})[0]
	var sink uint64
	if allocs := testing.AllocsPerRun(1000, func() { sink += sketch.RowHash(row) }); allocs != 0 {
		t.Fatalf("RowHash allocates %.1f times per row, want 0", allocs)
	}
	_ = sink
}

// pollCountingCtx is a context whose Done counts its callers — every
// cancellation poll of a tree build is one call — and which cancels
// itself at the fireAt-th poll (never, when fireAt is 0).
type pollCountingCtx struct {
	context.Context
	fireAt    int64
	polls     atomic.Int64
	afterFire atomic.Int64 // polls that found the context already canceled
	once      sync.Once
	done      chan struct{}
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

func (c *pollCountingCtx) Done() <-chan struct{} {
	if c.fired() {
		c.afterFire.Add(1)
	} else if n := c.polls.Add(1); c.fireAt > 0 && n >= c.fireAt {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *pollCountingCtx) Err() error {
	if c.fired() {
		return context.Canceled
	}
	return nil
}

// TestBuildTreePollsStopAndUnwinds restates "a canceled build returns
// promptly" as a property of the build at 200,000 rows. Every long loop
// — the lowering, the splitter's min/max passes, the selection — polls
// the stop hook between runs of at most 8,192 rows (pinned exactly, loop
// by loop, by TestLowerPollsStop, TestSelectSmallestPollsStop and
// TestWidestPollsStop), so a whole build polls at least once per 8,192
// rows of each pass; and once the hook fires, wherever that is, the
// build starts no further run: it unwinds in a handful of polls and its
// tree never reaches the cache.
func TestBuildTreePollsStopAndUnwinds(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-row build")
	}
	const n = 200_000
	prep := cancelPrep(t, n)
	opts := sketch.Options{MaxPartitionSize: 64, Depth: 2, Seed: 1, Parallelism: 1}

	ctx := newPollCountingCtx(0)
	opts.Ctx = ctx
	full := sketch.BuildTree(prep.Instance, opts)
	if len(full.Leaves()) == 0 {
		t.Fatal("uncanceled build returned no leaves")
	}
	total := ctx.polls.Load()
	// The lowering alone is ⌈n/8192⌉ polls; the root split's min/max pass
	// over two attributes and its first selection pass poll as often
	// again, and the next four levels (groups above 8,192 rows) add more.
	runs := int64((n + 8191) / 8192)
	if total < 4*runs {
		t.Fatalf("a %d-row build polled stop %d times, want at least %d (one poll per 8,192 rows of every pass)", n, total, 4*runs)
	}

	for _, fireAt := range []int64{1, runs / 2, runs + 3, 2 * runs, 3*runs + 5, total / 2, total - 1} {
		for _, par := range []int{1, 2} {
			ctx := newPollCountingCtx(fireAt)
			opts.Ctx, opts.Parallelism = ctx, par
			start := time.Now()
			sketch.BuildTree(prep.Instance, opts)
			elapsed := time.Since(start)
			if !ctx.fired() {
				t.Fatalf("fireAt=%d: build finished in %d polls without reaching the firing poll", fireAt, ctx.polls.Load())
			}
			// Unwinding polls once per pending recursion frame and once
			// per phase boundary — tens, not the hundreds a further pass
			// over the rows would add.
			if after := ctx.afterFire.Load(); after > 64 {
				t.Fatalf("fireAt=%d workers=%d: %d polls after stop fired (build took %v); the build kept working", fireAt, par, after, elapsed)
			}
		}
	}

	// Through Solve, a stop mid-build is ErrCanceled and the incomplete
	// tree is discarded: nothing is published to the cache.
	cache := sketch.NewCache(4)
	opts.Ctx, opts.Cache, opts.Parallelism = newPollCountingCtx(total/2), cache, 2
	if _, err := sketch.Solve(prep.Instance, opts); !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("Solve with a build canceled midway returned %v, want ErrCanceled", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("a canceled build published %d tree(s) to the cache", cache.Len())
	}
}
