package hbsp_test

// The public surface as a golden file: every exported name of the facade
// packages, and every exported method and field of each module type their
// signatures reach (aliases followed into internal/), one sorted line each.
// A change that adds, removes or re-signs a public name shows up as a diff of
// testdata/api.golden; `go test -run APIGolden -update .` rewrites it.

import (
	"bytes"
	"flag"
	"fmt"
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
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// apiPackages are the public packages, as directories under the module root.
var apiPackages = []string{
	".", "bench", "bsp", "cluster", "collective", "experiments", "fault", "kernels",
	"matrix", "model", "mpi", "sched", "server", "sim", "stencil", "trace",
}

const module = "hbsp"

// moduleImporter type-checks module packages from their non-test files and
// reads everything else from the toolchain's export data.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return im.std.Import(path)
	}
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.FromSlash("." + strings.TrimPrefix(path, module))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: im}).Check(path, im.fset, files, nil)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

// qualify prints module packages by their path below the module root (the
// root itself as "hbsp") and others by their import path.
func qualify(p *types.Package) string {
	if p.Path() == module {
		return module
	}
	return strings.TrimPrefix(p.Path(), module+"/")
}

func typeString(t types.Type) string { return types.TypeString(t, qualify) }

// surface collects the golden's lines and the module types still to describe.
type surface struct {
	lines []string
	seen  map[*types.TypeName]bool
	queue []*types.Named
}

func (s *surface) add(format string, args ...any) {
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

// reach queues every module named type t mentions through exported parts.
func (s *surface) reach(t types.Type) {
	switch t := t.(type) {
	case *types.Alias:
		s.reach(types.Unalias(t))
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			s.reach(t.TypeArgs().At(i))
		}
		obj := t.Origin().Obj()
		if obj.Pkg() == nil || s.seen[obj] {
			return
		}
		if p := obj.Pkg().Path(); p != module && !strings.HasPrefix(p, module+"/") {
			return
		}
		s.seen[obj] = true
		s.queue = append(s.queue, t.Origin())
	case *types.Pointer:
		s.reach(t.Elem())
	case *types.Slice:
		s.reach(t.Elem())
	case *types.Array:
		s.reach(t.Elem())
	case *types.Chan:
		s.reach(t.Elem())
	case *types.Map:
		s.reach(t.Key())
		s.reach(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.reach(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if t.Field(i).Exported() {
				s.reach(t.Field(i).Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if t.Method(i).Exported() {
				s.reach(t.Method(i).Type())
			}
		}
	}
}

// kind is what a type line prints after the name: structs and interfaces by
// keyword alone, since their exported members get lines of their own.
func kind(t types.Type) string {
	switch t.(type) {
	case *types.Struct:
		return "struct"
	case *types.Interface:
		return "interface"
	}
	return typeString(t)
}

// declare writes one package-level exported name.
func (s *surface) declare(obj types.Object) {
	name := qualify(obj.Pkg()) + "." + obj.Name()
	switch obj := obj.(type) {
	case *types.Const:
		s.add("const %s %s", name, typeString(obj.Type()))
	case *types.Var:
		s.add("var %s %s", name, typeString(obj.Type()))
	case *types.Func:
		s.add("func %s%s", name, strings.TrimPrefix(typeString(obj.Type()), "func"))
	case *types.TypeName:
		if obj.IsAlias() {
			s.add("type %s = %s", name, typeString(types.Unalias(obj.Type())))
		} else {
			s.add("type %s %s", name, kind(obj.Type().Underlying()))
		}
	}
	s.reach(obj.Type())
}

// members writes the exported fields and methods of one module type.
func (s *surface) members(t *types.Named) {
	name := qualify(t.Obj().Pkg()) + "." + t.Obj().Name()
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				embedded := ""
				if f.Embedded() {
					embedded = " embedded"
				}
				s.add("field %s.%s%s %s", name, f.Name(), embedded, typeString(f.Type()))
			}
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			if m := u.Method(i); m.Exported() {
				s.add("method %s.%s%s", name, m.Name(), strings.TrimPrefix(typeString(m.Type()), "func"))
			}
		}
	}
	for i := 0; i < t.NumMethods(); i++ {
		m := t.Method(i)
		if !m.Exported() {
			continue
		}
		recv := name
		if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
			recv = "*" + name
		}
		s.add("method (%s).%s%s", recv, m.Name(), strings.TrimPrefix(typeString(m.Type()), "func"))
		s.reach(m.Type())
	}
}

func TestAPIGolden(t *testing.T) {
	im := &moduleImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*types.Package{}}
	s := &surface{seen: map[*types.TypeName]bool{}}
	for _, dir := range apiPackages {
		path := module
		if dir != "." {
			path += "/" + dir
		}
		p, err := im.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range p.Scope().Names() {
			if obj := p.Scope().Lookup(n); obj.Exported() {
				s.declare(obj)
			}
		}
	}
	for len(s.queue) > 0 {
		n := s.queue[0]
		s.queue = s.queue[1:]
		s.members(n)
	}
	sort.Strings(s.lines)
	got := []byte(strings.Join(s.lines, "\n") + "\n")

	path := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run %s -update .`): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("public surface diverged from %s; if the change is intended, review the diff and regenerate with -update\n%s",
			path, lineDiff(want, got))
	}
}

// lineDiff lists the lines only one side has, "-" for want and "+" for got.
func lineDiff(want, got []byte) string {
	count := map[string]int{}
	for _, l := range strings.Split(string(want), "\n") {
		count[l]--
	}
	for _, l := range strings.Split(string(got), "\n") {
		count[l]++
	}
	var out []string
	for l, n := range count {
		for ; n < 0; n++ {
			out = append(out, "- "+l)
		}
		for ; n > 0; n-- {
			out = append(out, "+ "+l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][2:] < out[j][2:] })
	return strings.Join(out, "\n")
}
