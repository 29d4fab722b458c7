package packagebuilder_test

import (
	"fmt"
	"sync"
	"testing"

	pb "repro"
	"repro/internal/dataset"
)

// Concurrent queries against one System must be safe: read-only
// strategies share the catalog under RLock, and local search's scratch
// tables carry unique names. Run under -race. The table is small enough
// (20 candidates) for the forced enumeration to run, and each result
// must come from the strategy its query names.
func TestConcurrentQueries(t *testing.T) {
	sys := newSystem(t, 30)
	queries := []struct {
		text string
		want pb.Strategy
		opts []pb.Option
	}{
		{mealQuery, pb.Solver, []pb.Option{pb.WithStrategy(pb.Solver)}},
		{mealQuery, pb.PrunedEnum, []pb.Option{pb.WithStrategy(pb.PrunedEnum)}},
		{mealQuery, pb.LocalSearch, []pb.Option{pb.WithStrategy(pb.LocalSearch), pb.WithSeed(1)}},
		{mealQuery, pb.LocalSearch, []pb.Option{pb.WithStrategy(pb.LocalSearch), pb.WithSeed(2)}},
		{mealQuery, pb.Auto, []pb.Option{pb.WithLimit(3)}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for round := 0; round < 4; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(text string, want pb.Strategy, opts []pb.Option) {
				defer wg.Done()
				res, err := sys.Query(text, opts...)
				if err != nil {
					errs <- err
					return
				}
				if want != pb.Auto && res.Stats.Strategy != want {
					errs <- fmt.Errorf("strategy %v, want the forced %v", res.Stats.Strategy, want)
				}
				for _, p := range res.Packages {
					if p.Size() != 3 {
						errs <- errSize(p.Size())
					}
				}
			}(q.text, q.want, q.opts)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errSize int

func (e errSize) Error() string { return "unexpected package size" }

// Concurrent SQL readers during package evaluation.
func TestConcurrentSQLAndPaQL(t *testing.T) {
	sys := pb.New()
	if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: 100, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := sys.ExecSQL(`SELECT COUNT(*), AVG(calories) FROM recipes WHERE gluten = 'free'`); err != nil {
					t.Error(err)
				}
				return
			}
			if _, err := sys.Query(mealQuery, pb.WithSeed(int64(i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}
