package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestExportedAPIDocumented is the godoc discipline for the wire package
// on its own: every exported function, method of an exported type, type,
// const and var in its non-test files carries a doc comment. A documented
// const/var group, or a trailing comment, counts. The root TestAPILint
// applies the same rule to every internal/ package in one pass.
func TestExportedAPIDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	report := func(n *ast.Ident) {
		t.Errorf("%s: exported %s has no doc comment", fset.Position(n.Pos()), n.Name)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && exportedRecv(d.Recv) {
						report(d.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						documented := d.Doc != nil
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names, documented = []*ast.Ident{s.Name}, documented || s.Doc != nil || s.Comment != nil
						case *ast.ValueSpec:
							names, documented = s.Names, documented || s.Doc != nil || s.Comment != nil
						}
						for _, n := range names {
							if n.IsExported() && !documented {
								report(n)
							}
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a function is package-level or a method
// of an exported type; methods of unexported types are internal API.
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil {
		return true
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
