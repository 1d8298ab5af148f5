//go:build licencecheck

package solve

import (
	"fmt"

	"metarouting/internal/exec"
	"metarouting/internal/value"
)

// relaxCheck, in the licencecheck build, holds the comparison kernel to
// the licence it trusts from inference: every relaxation of a weight
// below the order's ⊤ must strictly increase it under I and must not
// decrease it under ND. A violation means the inference granted a licence
// the algebra does not have, and panics with the witness.
type relaxCheck struct {
	eng     exec.Algebra
	lic     Licence
	top     value.V
	haveTop bool
}

func newRelaxCheck(eng exec.Algebra, lic Licence) relaxCheck {
	c := relaxCheck{eng: eng, lic: lic}
	if ot := eng.Source(); ot != nil {
		c.top, c.haveTop = ot.Ord.Top()
	}
	return c
}

func (c relaxCheck) relax(wu, cand int32) {
	if c.haveTop && c.eng.Value(wu) == c.top {
		return
	}
	switch {
	case c.lic.i && !c.eng.Lt(wu, cand):
		panic(c.violation("I", "<", wu, cand))
	case c.lic.nd && !c.eng.Leq(wu, cand):
		panic(c.violation("ND", "≤", wu, cand))
	}
}

func (c relaxCheck) violation(p, rel string, wu, cand int32) string {
	return fmt.Sprintf("solve: licencecheck: %s licence on %s, but an arc maps %s to %s (want %s)", p, c.eng.Name(),
		value.Format(c.eng.Value(wu)), value.Format(c.eng.Value(cand)), rel)
}
