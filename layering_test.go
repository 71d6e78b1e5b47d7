package bqs_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bqs/internal/doccheck"
)

// TestFacadeLayering pins the layer map doc.go and docs/ARCHITECTURE.md
// print: the root package is the top layer, so no file under internal/ or
// cmd/ — test files included — may import it; they import the package
// that defines a name instead. The same test holds the facade to the
// godoc discipline the sim, faults, wire and store packages already
// enforce: every re-export keeps its doc comment.
func TestFacadeLayering(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "bqs" {
					t.Errorf("%s imports the root facade; import the defining package instead", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	missing, err := doccheck.Missing(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range missing {
		t.Errorf("exported %s has no doc comment", name)
	}
}
