// Package doccheck enforces the repo's godoc discipline mechanically: a
// revive-style comment check that every exported top-level symbol of a
// package carries a doc comment. The sim, faults, wire and store packages
// and the root facade run it from their test suites, so an exported API
// without its paper anchor or contract documented fails CI rather than
// rotting silently.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
)

// Missing parses the non-test Go files of the package in dir and returns
// the names of exported top-level declarations (functions, methods with
// exported receivers, types, and const/var specs) that have no doc
// comment, sorted for stable output. A grouped const/var declaration is
// considered documented when the group itself has a doc comment.
func Missing(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				missing = append(missing, missingInDecl(decl)...)
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// missingInDecl reports the undocumented exported names of one top-level
// declaration.
func missingInDecl(decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		if d.Recv != nil {
			recv, exported := receiverName(d.Recv)
			if !exported {
				return nil // method on an unexported type: internal API
			}
			return []string{fmt.Sprintf("%s.%s", recv, d.Name.Name)}
		}
		return []string{d.Name.Name}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return nil
		}
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

// receiverName extracts the receiver's type name and whether it is
// exported.
func receiverName(recv *ast.FieldList) (string, bool) {
	if len(recv.List) == 0 {
		return "", false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name, tt.IsExported()
		default:
			return "", false
		}
	}
}
