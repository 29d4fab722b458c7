package sketch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// maxParams is the widest signature a non-test function in this package
// may have. The descent used to thread inst, pins, opts, deadline and a
// result record through every helper (solveWave took twelve parameters);
// that state now lives on the per-run solver value, and this test keeps
// it there.
const maxParams = 6

// nonTestFiles parses the non-test Go files of dir.
func nonTestFiles(t *testing.T, dir string) map[string]*ast.Package {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestNoFunctionTakesMoreThanSixParameters(t *testing.T) {
	funcs := 0
	for _, pkg := range nonTestFiles(t, ".") {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var typ *ast.FuncType
				name := "func literal"
				switch fn := n.(type) {
				case *ast.FuncDecl:
					typ, name = fn.Type, fn.Name.Name
				case *ast.FuncLit:
					typ = fn.Type
				default:
					return true
				}
				funcs++
				params := 0
				for _, f := range typ.Params.List {
					params += max(len(f.Names), 1)
				}
				if params > maxParams {
					t.Errorf("%s takes %d parameters, more than %d: hang the shared state on the solver",
						name, params, maxParams)
				}
				return true
			})
		}
	}
	if funcs < 100 {
		t.Fatalf("walked %d functions; the package has well over a hundred — the walk is broken", funcs)
	}
}

// callSites counts, over the non-test files of dir, the calls of
// pkg.name — of the bare name when pkg is "", of name as a method of
// anything but a package (x.y.name) when pkg is ".".
func callSites(t *testing.T, dir, pkg, name string) int {
	t.Helper()
	n := 0
	for _, p := range nonTestFiles(t, dir) {
		ast.Inspect(p, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				if pkg == "" && fn.Name == name {
					n++
				}
			case *ast.SelectorExpr:
				if fn.Sel.Name != name {
					break
				}
				if x, ok := fn.X.(*ast.Ident); ok && x.Name == pkg {
					n++
				} else if _, deep := fn.X.(*ast.SelectorExpr); deep && pkg == "." {
					n++
				}
			}
			return true
		})
	}
	return n
}

// TestOneLoweringOneWeighingSite holds the structure that makes "once"
// true by construction. Within a query: the formula is lowered in Compile
// and nowhere else, a branch is weighed in (*Compiled).branch and nowhere
// else, and core compiles in PrepareQueryContext and reaches SketchRefine
// through that Compiled only. Across queries: the engine's every
// compilation is bound to the instance's pass store — the store's
// CompileSketch and Translate methods, never the package functions, which
// fold for themselves — and core makes a query's candidates, its pass
// store and its instance in one place each.
func TestOneLoweringOneWeighingSite(t *testing.T) {
	for _, c := range []struct {
		dir, pkg, name string
		want           int
	}{
		{".", ".", "CompileSketch", 1},
		{".", "translate", "CompileSketch", 0},
		{".", "", "newBranchAtoms", 1},
		{"../core", "sketch", "Compile", 1},
		{"../core", "sketch", "Solve", 0},
		{"../core", "sketch", "Applicable", 0},
		{"../core", ".", "Translate", 1},
		{"../core", "translate", "Translate", 0},
		{"../core", "", "candidatesOf", 1},
		{"../core", "search", "NewInstance", 1},
	} {
		if got := callSites(t, c.dir, c.pkg, c.name); got != c.want {
			t.Errorf("%s: %d call sites of %s.%s, want %d", c.dir, got, c.pkg, c.name, c.want)
		}
	}
}
