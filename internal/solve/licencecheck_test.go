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
// arc leaves a weight below ⊤ unchanged — stops each kernel at the first
// relaxation that breaks it: the comparison kernel on the tiered engine,
// the table kernel on the compiled one.
func TestLicencecheckCatchesForgedLicence(t *testing.T) {
	ot := intOT("plateau", 4, identity, func(x int) int { return min(x+1, 3) }, identity)
	ot.Props = checkedProps(ot)
	compiled, _ := compiledOT(t, ot)
	for _, eng := range []exec.Algebra{exec.NewTiered(ot), compiled} {
		t.Run(string(eng.Mode()), func(t *testing.T) {
			if k := NewPlan(eng).Kernel.String(); k != "best-first (M)" {
				t.Fatalf("plateau: kernel %q, want M only", k)
			}
			g := graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 2, To: 1, Label: 1}})
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "licencecheck: I licence") {
					t.Fatalf("the forged I licence ran unchecked (recovered %q)", msg)
				}
			}()
			ws := NewWorkspace()
			ws.Plan = &Plan{Kernel: Kernel{I: true}}
			ws.ScratchRaw(eng, g, 0, 0)
		})
	}
}
