package topomap

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyFixtures are the package-level declarations kept although
// only tests call them: graph fixtures and the oracles tests measure
// the pipeline against.
var testOnlyFixtures = map[string]bool{
	"repro/internal/graph.Grid2D":            true,
	"repro/internal/graph.Ring":              true,
	"repro/internal/graph.Star":              true,
	"repro/internal/partition.EdgeCut":       true,
	"repro/internal/partition.Imbalance":     true,
	"repro/internal/matrix.ReadMatrixMarket": true,
	"repro/internal/hpart.PartWeights":       true,
	"repro/internal/hpart.MeasureKWay":       true,
}

// TestEveryDeclarationHasACaller type-checks every non-test package of
// the module, cmd/mapbench included, and fails on any package-level
// func, type, var or const of a non-test file that no non-test file
// reaches. The root package's exported API and testOnlyFixtures are
// exempt; methods and fields are not checked, but count as part of
// their type.
func TestEveryDeclarationHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	imp := &moduleImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		files: files,
		pkgs:  map[string]*types.Package{},
		fset:  fset,
		info:  info,
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// Every use of a candidate is an edge from the candidate whose
	// declaration holds it, a type's methods counting as part of the
	// type. A use in no candidate's declaration (the root API, main,
	// init, a fixture) is a root. Live is what the roots reach, so a
	// declaration only dead code calls is dead too.
	decls := map[types.Object]bool{}
	calls := map[types.Object][]types.Object{}
	var live []types.Object
	declare := func(p string, n ast.Node, names ...string) {
		var owners []types.Object
		for _, name := range names {
			if obj := imp.pkgs[p].Scope().Lookup(name); obj != nil && isCandidate(p, obj) {
				decls[obj] = true
				owners = append(owners, obj)
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || imp.pkgs[obj.Pkg().Path()] != obj.Pkg() ||
				obj.Parent() != obj.Pkg().Scope() || !isCandidate(obj.Pkg().Path(), obj) {
				return true // not a package-level declaration of the module
			}
			if len(owners) == 0 {
				live = append(live, obj)
			}
			for _, o := range owners {
				if o != obj {
					calls[o] = append(calls[o], obj)
				}
			}
			return true
		})
	}
	for _, p := range paths {
		for _, f := range files[p] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						name = receiverName(d.Recv.List[0].Type)
					}
					declare(p, d, name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(p, s, s.Name.Name)
						case *ast.ValueSpec:
							names := make([]string, len(s.Names))
							for i, n := range s.Names {
								names[i] = n.Name
							}
							declare(p, s, names...)
						}
					}
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	for len(live) > 0 {
		obj := live[len(live)-1]
		live = live[:len(live)-1]
		if !reached[obj] {
			reached[obj] = true
			live = append(live, calls[obj]...)
		}
	}
	var dead []string
	for obj := range decls {
		if !reached[obj] {
			dead = append(dead, fmt.Sprintf("%s: %s.%s", fset.Position(obj.Pos()), obj.Pkg().Path(), obj.Name()))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test caller: %s", d)
	}
}

// isCandidate reports whether a package-level object must have a
// non-test caller.
func isCandidate(pkg string, obj types.Object) bool {
	name := obj.Name()
	switch {
	case name == "_" || name == "init":
		return false
	case name == "main" && obj.Pkg().Name() == "main":
		return false
	case pkg == "repro" && obj.Exported():
		return false
	}
	return !testOnlyFixtures[pkg+"."+name]
}

// receiverName is the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// moduleImporter type-checks the module's own packages from the parsed
// files, recording every use in one Info, and hands every other import
// to the standard library's source importer.
type moduleImporter struct {
	std   types.Importer
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	fset  *token.FileSet
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	m.pkgs[path] = pkg
	return pkg, nil
}
