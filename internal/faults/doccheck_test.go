package faults

import (
	"testing"

	"bqs/internal/doccheck"
)

// TestExportedAPIDocumented is the revive-style comment check of the
// godoc discipline: every exported symbol of the faults package must
// carry a doc comment (stating its paper anchor where one exists).
func TestExportedAPIDocumented(t *testing.T) {
	missing, err := doccheck.Missing(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range missing {
		t.Errorf("exported %s has no doc comment", name)
	}
}
