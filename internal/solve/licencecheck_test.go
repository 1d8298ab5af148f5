//go:build licencecheck

package solve

import (
	"strings"
	"testing"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
)

// TestLicencecheckCatchesForgedLicence: in the licencecheck build a
// licence inference never granted — strict I on an algebra whose identity
// arc leaves a weight below ⊤ unchanged — stops the comparison kernel at
// the first relaxation that breaks it.
func TestLicencecheckCatchesForgedLicence(t *testing.T) {
	ot := intOT("plateau", 4, identity, func(x int) int { return min(x+1, 3) }, identity)
	eng := exec.NewTiered(ot)
	if lic := NewLicence(eng, checkedProps(ot)); lic.ScratchSolver() != "best-first (M, inferred)" {
		t.Fatalf("plateau: licence %q, want M only", lic.ScratchSolver())
	}
	g := graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 2, To: 1, Label: 1}})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "licencecheck: I licence") {
			t.Fatalf("the forged I licence ran unchecked (recovered %q)", msg)
		}
	}()
	ws := NewWorkspace()
	ws.Licence = &Licence{i: true}
	ws.ScratchRaw(eng, g, 0, 0)
}
