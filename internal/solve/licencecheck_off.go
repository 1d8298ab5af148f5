//go:build !licencecheck

package solve

import "metarouting/internal/exec"

// relaxCheck is the licencecheck build's per-relaxation assertion
// (licencecheck.go); in every other build it compiles to nothing.
type relaxCheck struct{}

func newRelaxCheck(exec.Algebra, Plan) relaxCheck { return relaxCheck{} }

func (relaxCheck) relax(wu, cand int32) {}
