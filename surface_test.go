package repro

import (
	"fmt"
	"go/ast"
	"go/build"
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

// surfaceExempt lists what TestNoTestOnlySurface does not report, one
// reason each: match is an import path (the package and those below
// it) or ".Method" names.
var surfaceExempt = []struct{ match, reason string }{
	{"repro/dlhub", "the public SDK is called from outside the repository"},
	{"repro/internal/transfer", "no binary sets Config.Transfer yet; ROADMAP item 11's figure gate decides the package"},
	{"repro/internal/executor/executortest", "the executors' conformance table: a library whose callers are _test files"},
	{"repro/internal/leakcheck", "the goroutine leak check: a library whose callers are TestMain functions"},
	{".Is .Unwrap .MarshalJSON", "errors.Is/As and encoding/json find these by a run-time assertion no file's types show"},
}

func exempt(pkg, name string) bool {
	for _, e := range surfaceExempt {
		for _, m := range strings.Fields(e.match) {
			if pkg == m || strings.HasPrefix(pkg, m+"/") || (m[0] == '.' && strings.HasSuffix(name, m)) {
				return true
			}
		}
	}
	return false
}

// surfaceLoader type-checks the non-test files of both modules (repro
// and repro/benchmark) into one types.Info, so an identifier in one
// package resolves to the very object another package declares.
type surfaceLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]*build.Package // import path -> directory and its non-test files
	pkgs map[string]*types.Package
	info *types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	dir, ours := l.dirs[path]
	if !ours {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	var files []*ast.File
	for _, name := range dir.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	l.pkgs[path] = p
	return p, err
}

// TestNoTestOnlySurface fails on every package-level func, type, const,
// var and method that no non-test file of either module refers to —
// surface only tests keep alive. A method also counts as used when its
// receiver needs it to satisfy an interface some non-test file uses.
func TestNoTestOnlySurface(t *testing.T) {
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		dirs: map[string]*build.Package{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata" || name == "out") {
			return filepath.SkipDir
		}
		if pkg, _ := build.ImportDir(path, 0); pkg != nil && len(pkg.GoFiles) > 0 {
			l.dirs[filepath.ToSlash(filepath.Join("repro", path))] = pkg
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range l.dirs {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// Uses covers selectors too: the x.f in a call or a field access is
	// recorded under f. A use of an instantiated generic names a copy
	// of the declared object; Origin maps it back.
	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}

	// Every interface a non-test file mentions: as a declared type, or
	// as a parameter of something it calls (sort.Sort, http.Serve).
	ifaces := map[string][]*types.Interface{} // method name -> interfaces that have it
	seen := map[types.Type]bool{}
	var visit func(types.Type)
	visit = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			visit(u.Underlying())
		case *types.Alias:
			visit(types.Unalias(u))
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				ifaces[u.Method(i).Name()] = append(ifaces[u.Method(i).Name()], u)
			}
		case *types.Signature:
			visit(u.Params())
			visit(u.Results())
		case *types.Tuple:
			for i := 0; i < u.Len(); i++ {
				visit(u.At(i).Type())
			}
		case *types.Map:
			visit(u.Key())
			visit(u.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			visit(u.Elem())
		}
	}
	for _, tv := range l.info.Types {
		visit(tv.Type)
	}
	satisfies := func(recv *types.Named, m *types.Func) bool {
		for _, iface := range ifaces[m.Name()] {
			// A generic receiver has no method set to test until it is
			// instantiated; sharing a used interface's method name is
			// enough for it.
			if recv.TypeParams().Len() > 0 || types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	report := func(pkg *types.Package, name string, obj types.Object) {
		if !used[obj] && !exempt(pkg.Path(), name) {
			pos := l.fset.Position(obj.Pos())
			unused = append(unused, fmt.Sprintf("%s  %s  %s:%d", pkg.Path(), name, pos.Filename, pos.Line))
		}
	}
	for _, pkg := range l.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || (name == "main" && pkg.Name() == "main") {
				continue
			}
			report(pkg, name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			// An interface's own methods are not judged: they are the
			// contract its implementers, benchmark/'s among them, are
			// written against, and Named.Method lists none of them.
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !satisfies(named, m) {
					report(pkg, name+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("declared but referenced by no non-test file (pkg  name  file:line):\n%s", strings.Join(unused, "\n"))
	}
}
