package rib

import (
	"fmt"

	"metarouting/internal/graph"
)

// LoopError is Forward's failure on a forwarding loop: following primary
// next hops toward Dest came back to Node. Callers that answer route
// queries unwrap it (errors.As) to name the repeated node beside the
// text.
type LoopError struct {
	Node, Dest int
}

func (e *LoopError) Error() string {
	return fmt.Sprintf("rib: forwarding loop at node %d toward %d", e.Node, e.Dest)
}

// forwardScanHops is the path length up to which Forward detects loops
// by scanning the path built so far; longer walks switch to a bitmap.
// Forwarding paths are a handful of hops, so the common walk allocates
// only its path — not N bytes per call, which at 100k nodes was 100 KB
// per GET /v1/route and O(N²) bytes per /v1/paths.
const forwardScanHops = 32

// visited is Forward's loop detector.
type visited struct{ bitmap []bool }

// revisits reports whether u is already on path, the walk so far, which
// the caller extends by u afterwards. Short paths are scanned; once path
// outgrows forwardScanHops an n-slot bitmap is built from it and takes
// over.
func (v *visited) revisits(path graph.Path, u, n int) bool {
	if v.bitmap == nil {
		if len(path) < forwardScanHops {
			for _, x := range path {
				if x == u {
					return true
				}
			}
			return false
		}
		v.bitmap = make([]bool, n)
		for _, x := range path {
			v.bitmap[x] = true
		}
	}
	if v.bitmap[u] {
		return true
	}
	v.bitmap[u] = true
	return false
}
