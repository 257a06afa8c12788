//go:build !race

// The race detector slows the type checker about fivefold, past what one
// test may cost in the race suite, so this file builds only without it;
// `make api-check`, which the CI docs job runs, runs its guards on their own.

package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// programRoots are the directories whose non-test packages make up the
// program: the simulation, the CLIs, the examples and the reference
// benchmark.  bench/ is its own module (repro/bench) but compiles against
// this one, so its calls count.
var programRoots = []string{"internal", "cmd", "examples", "bench"}

// stdInterfaces are the standard-library interfaces whose methods the
// program never calls by name: the library calls them.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"flag", "Value"},
}

// TestEveryExportHasAProgramCaller keeps the exported surface of internal/
// to what the program calls.  It type-checks every non-test package under
// programRoots and fails, naming each one, on an exported function or method
// in internal/ that no non-test code uses.  A method that implements an
// interface method is exempt: the call goes through the interface.  A
// function that only a test needs belongs in that package's export_test.go.
func TestEveryExportHasAProgramCaller(t *testing.T) {
	p, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, s := range stdInterfaces {
		pkg, err := p.std.Import(s.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	for _, pkg := range p.pkgs {
		for _, name := range pkg.types.Scope().Names() {
			if tn, ok := pkg.types.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && !tn.IsAlias() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	var unused []string
	for _, pkg := range p.pkgs {
		if !strings.HasPrefix(pkg.types.Path(), "repro/internal/") {
			continue
		}
		for _, decl := range pkg.decls {
			fn := decl.fn
			if !fn.Exported() || p.usedOutside(fn, decl.body) {
				continue
			}
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && implementsAny(sig.Recv().Type(), fn.Name(), ifaces) {
				continue
			}
			unused = append(unused, p.fset.Position(fn.Pos()).String()+": "+qualifiedName(fn))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or move it to export_test.go", u)
	}
}

// writeOnlyFieldsKept names the unexported fields that the program writes
// and never reads but that stay, each with its reason.
var writeOnlyFieldsKept = map[string]string{
	"core.Loop.history": "bench/probes.go calls Loop.SetKeepHistory, which keeps it (ROADMAP item 8)",
}

// TestEveryFieldHasAProgramReader keeps the state of internal/ to what the
// program reads.  It fails, naming each one, on an unexported field of a
// struct type declared in internal/ that no non-test code reads.  Writes do
// not count as reads: an assignment to the field (also through an index or
// a *), x.f++ and x.f--, a key of a composite literal, and the first
// argument of x.f = append(x.f, ...).  A field that is only written costs a
// store on every path that writes it and is state no decision uses.
func TestEveryFieldHasAProgramReader(t *testing.T) {
	p, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	read := map[*types.Var]bool{}
	for _, pkg := range p.pkgs {
		markFieldReads(pkg, read)
	}
	var unread []string
	kept := map[string]bool{}
	for _, pkg := range p.pkgs {
		if !strings.HasPrefix(pkg.types.Path(), "repro/internal/") {
			continue
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if _, ok := spec.Type.(*ast.StructType); !ok {
					return true
				}
				prefix := pkg.types.Name() + "." + spec.Name.Name + "."
				eachField(pkg.info.Defs[spec.Name].Type().Underlying(), func(v *types.Var) {
					name := prefix + v.Name()
					switch {
					case v.Exported() || v.Name() == "_" || read[v]:
					case writeOnlyFieldsKept[name] != "":
						kept[name] = true
					default:
						unread = append(unread, p.fset.Position(v.Pos()).String()+": "+name)
					}
				})
				return true
			})
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is written but never read outside tests: delete it and what only feeds it", u)
	}
	for name := range writeOnlyFieldsKept {
		if !kept[name] {
			t.Errorf("writeOnlyFieldsKept lists %s, which is gone or has a reader: drop the entry", name)
		}
	}
}

// eachField calls fn on every field of a struct type, and on the fields of
// the unnamed struct types that its fields hold.
func eachField(typ types.Type, fn func(*types.Var)) {
	switch t := typ.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			fn(t.Field(i))
			eachField(t.Field(i).Type(), fn)
		}
	case *types.Pointer:
		eachField(t.Elem(), fn)
	case *types.Slice:
		eachField(t.Elem(), fn)
	case *types.Array:
		eachField(t.Elem(), fn)
	case *types.Map:
		eachField(t.Elem(), fn)
	}
}

// markFieldReads adds to read every field that pkg's code reads: each use
// of a field that is not a write, and each embedded field that a promoted
// selection passes through.
func markFieldReads(pkg *checkedPackage, read map[*types.Var]bool) {
	info := pkg.info
	writes := map[*ast.Ident]bool{}
	for _, f := range pkg.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id := writtenField(lhs); id != nil {
						writes[id] = true
					}
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
					if ok && len(call.Args) > 0 && info.Types[call.Fun].IsBuiltin() &&
						types.ExprString(call.Fun) == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						if id := writtenField(call.Args[0]); id != nil {
							writes[id] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if id := writtenField(n.X); id != nil {
					writes[id] = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			case *ast.SelectorExpr:
				sel, ok := info.Selections[n]
				if !ok {
					return true
				}
				typ := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if ptr, ok := typ.Underlying().(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					field := typ.Underlying().(*types.Struct).Field(i)
					read[field.Origin()] = true
					typ = field.Type()
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
	}
}

// writtenField returns the selector of the field that assigning to e
// writes, looking through parentheses, index expressions and *, or nil.
func writtenField(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// loadProgram type-checks every non-test package under programRoots, once
// for all the guards in this file.
var loadProgram = sync.OnceValues(func() (*program, error) {
	p := newProgram()
	for _, root := range programRoots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := p.load(importPathOf(path)); err != nil {
				if _, ok := err.(*build.NoGoError); ok {
					return nil
				}
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
})

// program type-checks the module's packages from source and records every
// use of every object.
type program struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*checkedPackage
	uses map[types.Object][]token.Pos
}

type checkedPackage struct {
	types *types.Package
	decls []funcDecl
	files []*ast.File
	info  *types.Info
}

// funcDecl is a declared function or method and the extent of its body, so
// that a recursive call is not counted as a caller.
type funcDecl struct {
	fn   *types.Func
	body [2]token.Pos
}

func newProgram() *program {
	fset := token.NewFileSet()
	return &program{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*checkedPackage{},
		uses: map[types.Object][]token.Pos{},
	}
}

// importPathOf maps a directory under the module root to its import path.
func importPathOf(dir string) string {
	return "repro/" + filepath.ToSlash(dir)
}

func (p *program) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, "", 0)
}

func (p *program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return p.load(path)
	}
	return p.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks one package of this module (bench/ included)
// by import path, once.
func (p *program) load(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg.types, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: p}
	tpkg, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &checkedPackage{types: tpkg, files: files, info: info}
	p.pkgs[path] = pkg
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		p.uses[obj] = append(p.uses[obj], id.Pos())
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				pkg.decls = append(pkg.decls, funcDecl{fn: info.Defs[fd.Name].(*types.Func), body: [2]token.Pos{fd.Pos(), fd.End()}})
			}
		}
	}
	return tpkg, nil
}

// usedOutside reports whether fn is used anywhere but inside its own body.
func (p *program) usedOutside(fn *types.Func, body [2]token.Pos) bool {
	for _, pos := range p.uses[fn] {
		if pos < body[0] || pos >= body[1] {
			return true
		}
	}
	return false
}

// implementsAny reports whether the method name of recv implements a method
// of one of ifaces.
func implementsAny(recv types.Type, name string, ifaces []*types.Interface) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// qualifiedName renders fn as pkg.Func or pkg.Type.Method.
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}
