package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedFuncsHaveCallers is the exported-API census. Every exported
// function or method declared in non-test code under internal/ must have
// one of two things:
//
//   - a non-test reference outside its own body, anywhere in the main
//     module or in bench/ (a method that implements an interface method
//     counts as called);
//   - a doc comment that names an existing Test…, Fuzz… or Benchmark…
//     function, saying why that test needs it.
//
// Anything else is code only a test calls, or nothing calls at all: it
// either becomes the implementation the simulator calls, an oracle a test
// checks the simulator against, a named test hook, or it goes.
//
// The check type-checks every non-test package of the main module plus
// bench/ with go/types; the standard library loads from source, so it
// needs no network and no build cache. Methods of unexported types are
// out of scope, and uses of generic methods match through Func.Origin.
func TestExportedFuncsHaveCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	offenders, err := exportedCensus(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Errorf("%d exported function(s) under internal/ with no non-test caller and no doc comment naming the test that needs them:\n\t%s",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
}

// censusModule is the import path of the main module; bench/'s module
// path (pckpt/bench) nests under it, so one prefix maps both to dirs.
const censusModule = "pckpt"

// censusLoader type-checks the module's packages from source on demand
// and hands every other import to the standard library's source importer.
type censusLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

func (l *censusLoader) Import(path string) (*types.Package, error) {
	if path != censusModule && !strings.HasPrefix(path, censusModule+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, censusModule)))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	return p, nil
}

// testFuncName matches a go test, fuzz or benchmark function's name.
var testFuncName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// exportedCensus returns the offenders, sorted, as "pkg.Recv.Name (file:line)".
func exportedCensus(root string) ([]string, error) {
	fset := token.NewFileSet()
	l := &censusLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	testNames := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := build.ImportDir(path, 0); err != nil {
				if _, ok := err.(*build.NoGoError); ok {
					return nil
				}
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			imp := censusModule
			if rel != "." {
				imp += "/" + filepath.ToSlash(rel)
			}
			_, err = l.Import(imp)
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && testFuncName.MatchString(fd.Name.Name) {
					testNames[fd.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The candidates: exported functions, and exported methods of
	// exported types, declared in non-test code under internal/.
	type candidate struct {
		decl *ast.FuncDecl
		fn   *types.Func
	}
	var cands []candidate
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	for _, f := range l.files {
		if !strings.HasPrefix(fset.Position(f.Pos()).Filename, internal) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := l.info.Defs[fd.Name].(*types.Func)
			if recv := receiverNamed(fn); recv != nil && !recv.Obj().Exported() {
				continue
			}
			cands = append(cands, candidate{fd, fn})
		}
	}
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, c := range cands {
		bodies[c.fn] = c.decl
	}

	called := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := bodies[fn]; ok && id.Pos() >= d.Pos() && id.Pos() < d.End() {
			continue // recursion is not a caller
		}
		called[fn] = true
	}

	// A method that implements an interface method counts as called: the
	// module's own interfaces, plus the standard ones it satisfies.
	var ifaces []*types.Interface
	for _, obj := range l.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, std := range []struct{ pkg, name string }{
		{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}, {"flag", "Value"},
	} {
		p, err := l.std.Import(std.pkg)
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, p.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}
	implements := func(fn *types.Func) bool {
		recv := receiverNamed(fn)
		if recv == nil || recv.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var out []string
	for _, c := range cands {
		if called[c.fn] || implements(c.fn) {
			continue
		}
		if c.decl.Doc != nil && namesTest(c.decl.Doc.Text(), testNames) {
			continue
		}
		name := c.fn.Name()
		if recv := receiverNamed(c.fn); recv != nil {
			name = recv.Obj().Name() + "." + name
		}
		pos := fset.Position(c.decl.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		out = append(out, c.fn.Pkg().Name()+"."+name+" ("+filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line)+")")
	}
	sort.Strings(out)
	return out, nil
}

// receiverNamed returns the named type a method is declared on, or nil
// for a plain function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namesTest reports whether a doc comment names an existing test.
func namesTest(doc string, tests map[string]bool) bool {
	for _, m := range testFuncName.FindAllString(doc, -1) {
		if tests[m] {
			return true
		}
	}
	return false
}
