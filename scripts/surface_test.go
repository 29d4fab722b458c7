// Package scripts holds the repository checks that need the Go type
// checker; scripts/lint.sh runs them.
package scripts

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// traceOnlyBaseline lists, one per line, the exported functions, methods
// and struct fields that no package outside their own references except
// benchmark/ and internal/bench: surface kept only so the frozen trace
// and the experiment tables can re-run the pipeline from outside.
const traceOnlyBaseline = "trace_only_surface.txt"

// TestTraceOnlySurface fails when the trace-only surface differs from its
// baseline: an added entry is new surface the engine does not use, and a
// vanished one should leave the baseline with the code.
func TestTraceOnlySurface(t *testing.T) {
	got := traceOnlySurface(t, "..")
	raw, err := os.ReadFile(traceOnlyBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	for _, g := range got {
		if !slices.Contains(want, g) {
			t.Errorf("%s is referenced from outside its package only under benchmark/ or internal/bench: give the engine a use for it, or delete it", g)
		}
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("%s left the trace-only surface: drop it from scripts/%s", w, traceOnlyBaseline)
		}
	}
	if t.Failed() {
		t.Logf("the surface today:\n%s", strings.Join(got, "\n"))
	}
}

// traceOnlySurface type-checks every package of the module at root and of
// the benchmark module inside it, and returns the exported functions,
// methods and struct fields declared outside benchmark/ and
// internal/bench that some non-test file there references and no
// non-test file of another package does. A package's references to its
// own names do not count: an option field its package reads exists for
// whoever sets it.
func traceOnlySurface(t *testing.T, root string) []string {
	l := &loader{root: root, fset: token.NewFileSet(), std: importer.Default(),
		pkgs: map[string]*types.Package{}, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.Import(importPath(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// The candidates, named pkg.Func, pkg.Type.Method and pkg.Type.Field.
	names := map[types.Object]string{}
	for path, pkg := range l.pkgs {
		if pkg == nil || benchOnly(path) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			prefix := pkg.Name() + "." + name
			switch o := scope.Lookup(name).(type) {
			case *types.Func:
				if o.Exported() {
					names[o] = prefix
				}
			case *types.TypeName:
				named, ok := o.Type().(*types.Named)
				if !ok || o.IsAlias() {
					continue
				}
				for i := range named.NumMethods() {
					if m := named.Method(i); m.Exported() {
						names[m] = prefix + "." + m.Name()
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := range st.NumFields() {
					// A field with a JSON name is read by the encoder,
					// which no reference shows.
					f := st.Field(i)
					if json, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !f.Embedded() && (!ok || json == "-") {
						names[f] = prefix + "." + f.Name()
					}
				}
			}
		}
	}

	engine, bench := map[types.Object]bool{}, map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if _, ok := names[obj]; !ok {
			continue
		}
		rel, _ := filepath.Rel(root, l.fset.Position(id.Pos()).Filename)
		switch from := importPath(filepath.Dir(rel)); {
		case benchOnly(from):
			bench[obj] = true
		case from != obj.Pkg().Path():
			engine[obj] = true
		}
	}
	var out []string
	for obj := range bench {
		if !engine[obj] {
			out = append(out, names[obj])
		}
	}
	slices.Sort(out)
	return out
}

// benchOnly reports whether the package at an import path belongs to the
// benchmark module or the experiment tables.
func benchOnly(path string) bool {
	for _, p := range []string{"repro/benchmark", "repro/internal/bench"} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// importPath maps a directory under the module root to its import path;
// the benchmark module's path is the root module's plus "/benchmark", so
// one rule covers both.
func importPath(rel string) string {
	if rel == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(rel)
}

// loader type-checks the repository's packages from source into one
// types.Info, and imports the standard library from export data.
type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package // by import path; nil for a directory without Go files
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var p *types.Package
	if len(files) > 0 {
		conf := types.Config{Importer: l}
		if p, err = conf.Check(path, l.fset, files, l.info); err != nil {
			return nil, err
		}
	}
	l.pkgs[path] = p
	return p, nil
}
