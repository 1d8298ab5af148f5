package rib

import (
	"fmt"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
)

// Col is the read surface shared by the two arena column layouts: the
// flat Column (one slot slice + one pool) and the paged PagedColumn
// (fixed-size copy-on-write pages behind a page table). The serve
// snapshot plane holds columns through this interface so the zero-alloc
// batch resolver, the forwarding walker and the replication encoder run
// unchanged over either layout; both implementations are pointer-shaped,
// so storing one in a Col never allocates.
type Col interface {
	// DestNode is the destination node anchoring the column.
	DestNode() int
	// NumNodes is the column length (the graph's node count).
	NumNodes() int
	// IsConverged reports whether the producing solver run reached a
	// fixpoint.
	IsConverged() bool
	// IsClean reports the verified clean-forwarding-tree certificate
	// (see solve.Workspace.VerifyForwardTree); it licenses the sparse
	// delta warm start on the next rebuild.
	IsClean() bool
	// Route returns node u's selected weight index (ok=false when
	// unrouted or out of range).
	Route(u int) (w int32, ok bool)
	// NextHops returns u's ECMP next-hop view (aliasing internal
	// storage; read-only, primary first), nil when unrouted or at the
	// destination.
	NextHops(u int) []int32
	// AppendNextHops appends u's ECMP span to dst — the batched query
	// plane's copy-out entry point.
	AppendNextHops(dst []int32, u int) []int32
	// Forward resolves the forwarding path from a node to the
	// destination following primary next hops.
	Forward(from int) (graph.Path, error)
	// Entry materializes node u's legacy *Entry view (nil when
	// unrouted).
	Entry(eng exec.Algebra, u int) *Entry
	// Bytes is the arena footprint; Live the routed slot count. Both
	// are O(pages) at most — never a full slot scan on built columns.
	Bytes() int
	Live() int
	// Flatten returns the column in flat form (itself for a *Column;
	// a fresh canonical re-lay for a *PagedColumn).
	Flatten() *Column
	// Paged returns the column in paged form (itself for a
	// *PagedColumn; a fresh canonical re-lay for a *Column) — the form
	// the replication wire codec and checksums consume.
	Paged() *PagedColumn
}

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

// visited is Forward's loop detector, shared by both column layouts.
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
