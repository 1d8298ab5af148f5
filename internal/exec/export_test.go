package exec

import "metarouting/internal/ost"

// NewTieredCap exposes the capped tiered constructor to the black-box
// tests, which need tiny hot tiers to reach growth and the cold tail.
func NewTieredCap(t *ost.OrderTransform, limit int32) Algebra { return newTieredCap(t, limit) }
