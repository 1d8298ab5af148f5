package compile

import "metarouting/internal/ost"

// Enumerate builds t's tables with no composition rule: every function
// cell and every order cell of t itself evaluated, the code New runs on
// a leaf applied to the whole transform. It is the oracle the composed
// tables are checked against.
func Enumerate(t *ost.OrderTransform) (*Compiled, error) {
	c := newCompiled(t)
	if err := c.enumerate(t); err != nil {
		return nil, err
	}
	return c, nil
}
