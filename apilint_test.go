package bqs_test

// The repo's API lint: one type-checked pass over the non-test source of
// both modules (this one and benchmark/) that enforces the layer map, the
// godoc discipline and "every exported internal/ function has a product
// caller". Callers are resolved by object through go/types, so a dead
// Set.Min is not hidden by a live function that shares its name.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// apiAllowlist names the exported internal/ functions that only tests call
// today, each with its owner: the ROADMAP item that gives it a product
// caller, or the test in another package that uses it as an oracle. An
// entry that gains a caller, or whose function is gone, fails the lint, so
// the list can only shrink.
var apiAllowlist = map[string]string{
	"sim.Session.Batching":                "ROADMAP 2(a): goes with the Session batcher",
	"measures.CrashPolynomial":            "ROADMAP 7(a): exact F_p for Grid and M-Grid",
	"measures.EvalCrashPolynomial":        "ROADMAP 7(a): exact F_p for Grid and M-Grid",
	"compose.Crash":                       "ROADMAP 7(b): Compose's AnalyticCrash",
	"core.IsBMasking":                     "ROADMAP 10: the intersection column",
	"core.ExplicitSystem.IsTransversal":   "ROADMAP 10: the intersection column",
	"wire.Client.FetchConfig":             "ROADMAP 25(a): the unanimity follower",
	"combin.TailUpperBound":               "ROADMAP 29(b): Lemma A.2 column",
	"measures.LoadFair":                   "ROADMAP 29(b): Proposition 3.9 column",
	"systems.RT.CrashUpperBound":          "ROADMAP 29(b): Proposition 5.7 column",
	"systems.BoostFPP.CrashUpperBound":    "ROADMAP 29(b): Section 6 column",
	"systems.BoostFPP.ChernoffUpperBound": "ROADMAP 29(b): Section 6 column",
	"systems.Grid.CrashLowerBoundRows":    "ROADMAP 29(b): row-crash column",

	"bitset.Set.Equal":                           "oracle in compose's TestCompositeMatchesExplicitOnSelection and systems' TestRTSelectQuorumRecursive",
	"faults.Adversary.Victims":                   "oracle in sim's TestAdversaryBudgetInvariant",
	"faults.ChurnConfig.FailureModel":            "oracle in sim's TestChurnFailureModel",
	"measures.FailureModel.DownProbabilities":    "oracle in sim's TestChurnFailureModel",
	"lattice.Grid.CountDisjointPaths":            "oracle in systems' TestMPathNoLiveQuorumIsExact",
	"lattice.SquareEdgeGrid.DisjointLRPaths":     "oracle in systems' TestSquareEdgeGridPrimitives",
	"lattice.SquareEdgeGrid.DisjointDualTBPaths": "oracle in systems' TestSquareEdgeGridPrimitives",
}

// repoLint runs the lint over the repository once, for the two tests that
// report its findings.
var repoLint = sync.OnceValues(func() (lintReport, error) {
	return lintAPI(".", "bqs", apiAllowlist)
})

// TestFacadeLayering pins the layer map doc.go and docs/ARCHITECTURE.md
// print: the root package is the top layer, so no non-test file under
// internal/ or cmd/ may import it; they import the package that defines a
// name instead.
func TestFacadeLayering(t *testing.T) {
	r, err := repoLint()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.layering {
		t.Error(f)
	}
}

// TestAPILint holds the facade and internal/ to the godoc discipline and
// every exported internal/ function to a product caller.
func TestAPILint(t *testing.T) {
	r, err := repoLint()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.api {
		t.Error(f)
	}
}

// TestAPILintFindings pins the lint's findings on a fixture tree: a dead
// export, an export a command calls, methods that satisfy an interface in
// another package and fmt.Stringer, an allowlisted name, two stale
// allowlist entries, a test-only caller that does not count, a facade
// import from internal/, and undocumented exports.
func TestAPILintFindings(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The godoc fixture, unchanged from the old per-package check.
	write("internal/sample/sample.go", `package sample

// Documented is fine.
type Documented struct{}

type Undocumented struct{}

// DocumentedFunc is fine.
func DocumentedFunc() {}

func UndocumentedFunc() {}

func unexported() {}

// Method is fine.
func (Documented) Method() {}

func (Documented) Bare() {}

// Grouped constants share the group doc.
const (
	GroupedA = 1
	GroupedB = 2
)

const Loner = 3

var (
	WithDoc = 1 // a trailing comment counts
	Orphan  = 2
)
`)
	write("internal/api/api.go", `// Package api is the dead-export fixture.
package api

import "fmt"

// Dead has only a test caller.
func Dead() int { return Dead() }

// Used has a command caller.
func Used() {}

// Allowed is dead but allowlisted.
func Allowed() {}

// Claimed is allowlisted but has a product caller.
func Claimed() {}

// T is a value.
type T struct{}

// String satisfies fmt.Stringer.
func (T) String() string { return fmt.Sprint(1) }

// Run satisfies runner.Runner.
func (T) Run() {}

// Spare is a dead method.
func (*T) Spare() {}
`)
	write("internal/api/api_test.go", `package api

import "testing"

func TestDead(t *testing.T) { Dead(); (&T{}).Spare() }
`)
	write("internal/runner/runner.go", `// Package runner declares an interface.
package runner

import "bqs/internal/api"

// Runner runs.
type Runner interface{ Run() }

// Start is called from the facade.
func Start(r Runner) { api.Claimed() }
`)
	write("internal/bad/bad.go", `// Package bad imports the facade.
package bad

import _ "bqs"
`)
	write("cmd/tool/tool_test.go", `package main

import _ "bqs"
`)
	write("facade.go", `// Package bqs is the facade.
package bqs

import "bqs/internal/runner"

// Start re-exports runner.Start.
var Start = runner.Start
`)
	write("cmd/tool/main.go", `package main

import "bqs/internal/api"

func main() { api.Used() }
`)
	allow := map[string]string{
		"api.Allowed": "kept",
		"api.Claimed": "stale: has a caller",
		"api.Gone":    "stale: no such function",
	}
	r, err := lintAPI(root, "bqs", allow)
	if err != nil {
		t.Fatal(err)
	}
	got := append(r.layering, r.api...)
	want := []string{
		"cmd/tool/tool_test.go imports the root facade; import the defining package instead",
		"internal/bad/bad.go imports the root facade; import the defining package instead",
		"internal/sample: exported Documented.Bare has no doc comment",
		"internal/sample: exported Loner has no doc comment",
		"internal/sample: exported Orphan has no doc comment",
		"internal/sample: exported Undocumented has no doc comment",
		"internal/sample: exported UndocumentedFunc has no doc comment",
		"api.Dead has no caller outside tests",
		"api.T.Spare has no caller outside tests",
		"sample.Documented.Bare has no caller outside tests",
		"sample.Documented.Method has no caller outside tests",
		"sample.DocumentedFunc has no caller outside tests",
		"sample.UndocumentedFunc has no caller outside tests",
		"allowlist: api.Claimed has a product caller; drop the entry",
		"allowlist: api.Gone names no exported internal/ function; drop the entry",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// lintPkg is one package's non-test source, parsed and type-checked.
type lintPkg struct {
	dir   string // slash-separated, relative to the lint root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// lintReport holds the lint's findings in a stable order: layering holds
// the facade imports; api holds missing doc comments, then exports with
// no product caller, then stale allowlist entries.
type lintReport struct {
	layering, api []string
}

// lintAPI checks the tree at root, whose module path is mod. Every
// non-test package under root counts, including the nested benchmark
// module, whose import path is its directory under mod.
func lintAPI(root, mod string, allow map[string]string) (lintReport, error) {
	var r lintReport
	fset := token.NewFileSet()
	pkgs := map[string]*lintPkg{} // by import path
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		test := strings.HasSuffix(p, "_test.go")
		mode := parser.ParseComments
		if test {
			mode = parser.ImportsOnly
		}
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(rel)
		// Rule 1: the root facade is the top layer, so no file under
		// internal/ or cmd/, test files included, imports it.
		if isUnder(file, "internal") || isUnder(file, "cmd") {
			for _, is := range f.Imports {
				if strings.Trim(is.Path.Value, `"`) == mod {
					r.layering = append(r.layering, file+" imports the root facade; import the defining package instead")
				}
			}
		}
		if test {
			return nil
		}
		dir := path.Dir(file)
		ip := path.Join(mod, dir)
		if pkgs[ip] == nil {
			pkgs[ip] = &lintPkg{dir: dir}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		return nil
	})
	if err != nil {
		return lintReport{}, err
	}

	// Type-check module packages from source on demand, in import order;
	// the standard library comes from compiler export data, located for
	// every imported package by one go list call.
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		return lintReport{}, err
	}
	var check func(ip string) (*types.Package, error)
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if pkgs[ip] != nil {
			return check(ip)
		}
		return std.Import(ip)
	})
	check = func(ip string) (*types.Package, error) {
		p := pkgs[ip]
		if p.types != nil {
			return p.types, nil
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(ip, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		return tp, nil
	}
	paths := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := check(ip); err != nil {
			return lintReport{}, err
		}
	}
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		return lintReport{}, err
	}

	// Rule 2: every exported name of the facade and of internal/ has a doc
	// comment.
	for _, ip := range paths {
		p := pkgs[ip]
		if p.dir != "." && !isUnder(p.dir, "internal") {
			continue
		}
		var missing []string
		for _, f := range p.files {
			for _, decl := range f.Decls {
				missing = append(missing, undocumented(decl)...)
			}
		}
		sort.Strings(missing)
		for _, name := range missing {
			r.api = append(r.api, fmt.Sprintf("%s: exported %s has no doc comment", p.dir, name))
		}
	}

	// Rule 3: every exported internal/ function or method has a caller
	// outside tests, or an interface names it.
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						// A function calling itself is not a caller.
						if fn, ok := p.info.Uses[n].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					case *ast.InterfaceType:
						if it, ok := p.info.Types[n].Type.(*types.Interface); ok {
							ifaces = append(ifaces, it)
						}
					}
					return true
				})
			}
		}
	}
	ifaces = append(ifaces,
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
	// named reports whether an interface names method fn and its
	// receiver's type implements that interface. The pointer type's
	// method set holds every method, whatever the receivers.
	named := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
		for _, it := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); m == nil {
				continue
			}
			if types.Implements(t, it) {
				return true
			}
		}
		return false
	}

	var dead, stale []string
	exported := map[string]bool{}
	for _, ip := range paths {
		p := pkgs[ip]
		if !isUnder(p.dir, "internal") {
			continue
		}
		short := strings.TrimPrefix(p.dir, "internal/")
		for _, fn := range exportedFuncs(p.types) {
			name := short + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = short + "." + recvName(recv.Type()) + "." + fn.Name()
			}
			exported[name] = true
			live := used[fn] || named(fn)
			switch _, ok := allow[name]; {
			case ok && live:
				stale = append(stale, "allowlist: "+name+" has a product caller; drop the entry")
			case !ok && !live:
				dead = append(dead, name+" has no caller outside tests")
			}
		}
	}
	sort.Strings(dead)
	for name := range allow {
		if !exported[name] {
			stale = append(stale, "allowlist: "+name+" names no exported internal/ function; drop the entry")
		}
	}
	sort.Strings(stale)
	r.api = append(append(r.api, dead...), stale...)
	return r, nil
}

// exportedFuncs lists a package's exported functions and the exported
// methods of its exported named types.
func exportedFuncs(pkg *types.Package) []*types.Func {
	var fns []*types.Func
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		switch obj := scope.Lookup(n).(type) {
		case *types.Func:
			if obj.Exported() {
				fns = append(fns, obj)
			}
		case *types.TypeName:
			nt, ok := obj.Type().(*types.Named)
			if !ok || !obj.Exported() || obj.IsAlias() {
				continue
			}
			for i := 0; i < nt.NumMethods(); i++ {
				if m := nt.Method(i); m.Exported() {
					fns = append(fns, m)
				}
			}
		}
	}
	return fns
}

// recvName is the base type name of a method receiver.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// isUnder reports whether the slash path dir is top or inside it.
func isUnder(dir, top string) bool {
	return dir == top || strings.HasPrefix(dir, top+"/")
}

// undocumented reports the exported names of one top-level declaration
// that have no doc comment: functions, methods of exported receivers,
// types, and const/var specs. A grouped const/var declaration is
// documented when the group has a doc comment.
func undocumented(decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		if d.Recv == nil {
			return []string{d.Name.Name}
		}
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch g := t.(type) { // generic receivers
		case *ast.IndexExpr:
			t = g.X
		case *ast.IndexListExpr:
			t = g.X
		}
		if id, ok := t.(*ast.Ident); ok && id.IsExported() {
			return []string{id.Name + "." + d.Name.Name}
		}
		return nil // method on an unexported type: internal API
	case *ast.GenDecl:
		var missing []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					missing = append(missing, s.Name.Name)
				}
			case *ast.ValueSpec:
				// A documented group covers its specs; otherwise each
				// exported spec needs its own doc or trailing comment.
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						missing = append(missing, name.Name)
					}
				}
			}
		}
		return missing
	}
	return nil
}

// stdImporter returns an importer of the standard-library packages the
// module packages import, reading the compiler export data that one
// "go list -export" call locates (and builds, when the cache lacks it).
func stdImporter(fset *token.FileSet, pkgs map[string]*lintPkg) (types.Importer, error) {
	std := map[string]bool{"fmt": true} // fmt for fmt.Stringer
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, is := range f.Imports {
				if ip := strings.Trim(is.Path.Value, `"`); pkgs[ip] == nil && ip != "unsafe" {
					std[ip] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for ip := range std {
		args = append(args, ip)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, "=")
		export[ip] = file
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		if export[ip] == "" {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(export[ip])
	}), nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
