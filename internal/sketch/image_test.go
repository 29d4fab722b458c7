package sketch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
	"repro/internal/value"
)

// imageSchema mixes the kinds a table image codes table-wide: numbers
// with NULLs, a text column holding a number now and then, a unique text
// column, a number column with text in rows no WHERE selects, and a
// column NULL on every candidate with text elsewhere in the table. The
// engine's tables hold one kind per column; an image has to be right on
// rows that do not.
func imageSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "x", Type: schema.TFloat},
		schema.Column{Name: "y", Type: schema.TInt},
		schema.Column{Name: "cat", Type: schema.TString},
		schema.Column{Name: "uniq", Type: schema.TString},
		schema.Column{Name: "z", Type: schema.TFloat},
		schema.Column{Name: "w", Type: schema.TFloat},
	)
}

const imageQuery = `SELECT PACKAGE(R) AS P FROM t R
	SUCH THAT COUNT(*) <= 5 AND SUM(P.x) <= 1000000 AND SUM(P.z) >= -1000000
	MAXIMIZE SUM(P.y)`

// imageRows returns n table rows, first numbered from first, and which of
// them are candidates: only those rows read text in z and w, and a
// number in cat now and then.
func imageRows(rng *rand.Rand, first, n int) (rows []schema.Row, cand []bool) {
	rows, cand = make([]schema.Row, n), make([]bool, n)
	for i := range rows {
		id := first + i
		cand[i] = rng.Intn(3) != 0
		x := value.Float(float64(rng.Intn(40)) / 4)
		if rng.Intn(6) == 0 {
			x = value.Null()
		}
		cat := value.Str([]string{"thai", "NULL", "1", ""}[rng.Intn(4)])
		if rng.Intn(7) == 0 {
			cat = value.Int(int64(rng.Intn(2)))
		}
		z, w := value.Float(float64(rng.Intn(9))), value.Null()
		if !cand[i] && rng.Intn(3) == 0 {
			z, w = value.Str("text"), value.Str(fmt.Sprintf("w%d", rng.Intn(5)))
		}
		rows[i] = schema.Row{value.Int(int64(id)), x, value.Int(int64(rng.Intn(5))), cat,
			value.Str(fmt.Sprintf("u%d", id)), z, w}
	}
	return rows, cand
}

// imageInstances returns two instances over the candidates of table at
// ids: one reading the table's image, one lowering its rows.
func imageInstances(t testing.TB, table []schema.Row, img *search.Columns, ids []int) (fromImage, lowered *search.Instance) {
	t.Helper()
	q, err := paql.Parse(imageQuery)
	if err != nil {
		t.Fatal(err)
	}
	a, err := paql.Analyze(q, imageSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]schema.Row, len(ids))
	for j, id := range ids {
		rows[j] = table[id]
	}
	mk := func() *search.Instance {
		inst, err := search.NewInstance(context.Background(), a, translate.NewPasses(rows), ids)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	fromImage, lowered = mk(), mk()
	fromImage.Image = func(context.Context) (*search.Columns, error) { return img, nil }
	return fromImage, lowered
}

// sameTree reports where two trees differ: levels, children, tuples and
// representatives, cell by cell by identity.
func sameTree(got, want *Tree) error {
	if got.Depth != want.Depth || !slices.Equal(got.Attrs, want.Attrs) || got.Drift != want.Drift {
		return fmt.Errorf("depth %d/%d, attrs %v/%v, drift %d/%d", got.Depth, want.Depth, got.Attrs, want.Attrs, got.Drift, want.Drift)
	}
	for l := range want.Levels {
		if len(got.Levels[l]) != len(want.Levels[l]) {
			return fmt.Errorf("level %d: %d nodes, want %d", l, len(got.Levels[l]), len(want.Levels[l]))
		}
		for i, w := range want.Levels[l] {
			g := got.Levels[l][i]
			if !slices.Equal(g.Children, w.Children) || !slices.Equal(g.Tuples, w.Tuples) {
				return fmt.Errorf("level %d node %d: children %v tuples %v, want %v %v", l, i, g.Children, g.Tuples, w.Children, w.Tuples)
			}
			if !slices.EqualFunc(g.Rep, w.Rep, value.V.Identical) {
				return fmt.Errorf("level %d node %d: representative %v, want %v", l, i, g.Rep, w.Rep)
			}
		}
	}
	return nil
}

// checkImageMatchesLower builds and patches over one table both ways —
// reading the table's image by tuple id and lowering the candidates — at
// the given shape and worker counts 1 and 2, and fails on the first tree
// that differs. The patch deletes some rows, candidates or not, and
// appends some; the image is advanced along that delta.
func checkImageMatchesLower(t testing.TB, seed int64, n, tau, depth int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	table, cand := imageRows(rng, 0, n)
	var ids []int
	for i, c := range cand {
		if c {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 || len(ids) == n {
		return // the WHERE must select a strict subset
	}
	img := search.Lower(table, nil, nil)
	img.Trim()
	fromImage, lowered := imageInstances(t, table, img, ids)
	opts := Options{MaxPartitionSize: tau, Depth: depth, Seed: seed}
	var base *Tree
	for _, par := range []int{1, 2} {
		opts.Parallelism = par
		want := BuildTree(lowered, opts)
		if err := sameTree(BuildTree(fromImage, opts), want); err != nil {
			t.Fatalf("seed %d n=%d tau=%d depth=%d workers=%d: the tree built from the image differs from the lowered one: %v", seed, n, tau, depth, par, err)
		}
		base = want
	}

	// The delta: a few rows deleted anywhere, a few appended.
	var deleted []int
	for i := range table {
		if rng.Intn(40) == 0 {
			deleted = append(deleted, i)
		}
	}
	appended, appendedCand := imageRows(rng, n, 1+rng.Intn(max(n/40, 1)))
	var next []schema.Row
	remap := make([]int, len(ids))
	var nextIDs []int
	ci, di := 0, 0
	for i, row := range table {
		if di < len(deleted) && deleted[di] == i {
			di++
			if ci < len(ids) && ids[ci] == i {
				remap[ci] = -1
				ci++
			}
			continue
		}
		if ci < len(ids) && ids[ci] == i {
			remap[ci] = len(nextIDs)
			nextIDs = append(nextIDs, len(next))
			ci++
		}
		next = append(next, row)
	}
	for j, row := range appended {
		if appendedCand[j] {
			nextIDs = append(nextIDs, len(next))
		}
		next = append(next, row)
	}
	nextImg := img.Advance(next, deleted)
	if nextImg == nil {
		t.Fatalf("seed %d: the image did not advance", seed)
	}
	fromImage, lowered = imageInstances(t, next, nextImg, nextIDs)
	want, wantErr := base.patch(lowered, remap, opts)
	got, gotErr := base.patch(fromImage, remap, opts)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("seed %d n=%d tau=%d depth=%d: patch from the image: %v; from a lowering: %v", seed, n, tau, depth, gotErr, wantErr)
	}
	if wantErr == nil {
		if err := sameTree(got, want); err != nil {
			t.Fatalf("seed %d n=%d tau=%d depth=%d: the tree patched from the image differs from the lowered one: %v", seed, n, tau, depth, err)
		}
	}
}

// TestBuildTreeFromImageMatchesLower: a tree built or patched from a
// table image — columns coded table-wide, read through the candidates'
// ids — is the tree a lowering of the candidates alone gives, level by
// level, tuple by tuple and representative cell by cell, at one and two
// workers. The tables mix what a table-wide dictionary could get wrong:
// text in a numeric column outside the candidates, a candidate column
// that is all NULL with text elsewhere, numbers in a text column and a
// unique text column. The identity case reads the image as it is.
func TestBuildTreeFromImageMatchesLower(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, shape := range []struct{ n, tau, depth int }{{400, 8, 2}, {900, 32, 3}, {250, 3, 1}, {1500, 64, 2}} {
			checkImageMatchesLower(t, seed, shape.n, shape.tau, shape.depth)
		}
	}
	// No WHERE: the candidates are the table, read as they are.
	rng := rand.New(rand.NewSource(3))
	table, cand := imageRows(rng, 0, 800)
	var rows []schema.Row
	for i, c := range cand {
		if c {
			rows = append(rows, table[i])
		}
	}
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	img := search.Lower(rows, nil, nil)
	fromImage, lowered := imageInstances(t, rows, img, ids)
	if cols, at := fromImage.Lowered(nil); cols != img || at != nil {
		t.Fatal("an instance of every row of its table does not read the image as it is")
	}
	opts := Options{MaxPartitionSize: 16, Depth: 2, Seed: 5}
	if err := sameTree(BuildTree(fromImage, opts), BuildTree(lowered, opts)); err != nil {
		t.Fatalf("no WHERE: %v", err)
	}
}

func FuzzBuildTreeFromImageMatchesLower(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(8), uint8(2))
	f.Add(int64(7), uint16(60), uint8(1), uint8(3))
	f.Add(int64(42), uint16(1200), uint8(40), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, tau, depth uint8) {
		checkImageMatchesLower(t, seed, 2+int(n%2000), 1+int(tau%80), 1+int(depth%3))
	})
}
