package sketch_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// benchQueryT0 is the benchmark's template T0 without a WHERE: its
// split attributes are calories and protein.
const benchQueryT0 = `
	SELECT PACKAGE(R) AS P FROM recipes R
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func benchPrep50k(b *testing.B) *core.Prepared {
	b.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 50_000, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	prep, err := core.Prepare(db, benchQueryT0)
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

var benchSink any

// BenchmarkBuildTree50k is the cold path's tree build at the size and
// shape the planner gives a 50,000-candidate query: τ = 64, two levels,
// one worker per core of the reference box.
func BenchmarkBuildTree50k(b *testing.B) {
	prep := benchPrep50k(b)
	opts := sketch.Options{MaxPartitionSize: 64, Depth: 2, Seed: 1, Parallelism: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = sketch.BuildTree(prep.Instance, opts)
	}
	b.ReportMetric(float64(len(prep.Instance.Rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkFingerprint50k hashes every cell of 50,000 candidates: what
// a query pays when the fingerprint memo has never seen its WHERE.
func BenchmarkFingerprint50k(b *testing.B) {
	prep := benchPrep50k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = sketch.Fingerprint(prep.Instance.Rows)
	}
	b.ReportMetric(float64(len(prep.Instance.Rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
