package rib

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// This file holds the paged copy-on-write route column, the one form a
// server snapshot, a RIB and a replica store. Slots and their ECMP pool
// live in fixed-size pages behind a small page table; a delta rebuild
// clones only the pages whose routes change and shares every other page
// by pointer with the previous snapshot, so a 4-node frontier on a
// 100k-node column copies a handful of kilobytes instead of megabytes.
// Leader and follower lay a changed page out with the same function,
// patchPage.
//
// The copy-on-write ownership rule: a published page is immutable.
// Builders mutate only pages they freshly allocated within the current
// rebuild; once a PagedColumn is handed to a snapshot, every page in it
// is frozen and may be aliased by any number of later columns. Sharing
// is sound because page content is a pure function of its own nodes'
// routes: each page carries its own pool with page-relative offsets,
// slots are laid ascending and spans appended in slot order, so two
// columns agreeing on a page's routes agree on the page's bytes — a page
// without a changed slot is its own rebuild — and Flatten (concatenating
// pages in order, rebasing offsets) reproduces the naive BuildDestColumn
// layout bit-identically. That equality is the invariant every paged
// differential checks.

// PageShift sets the page size: 1<<PageShift slots per page. 64 slots
// (512 B of 8-byte PageSlots, so a ColumnPage is 552 B and sits in the
// 576-byte size class, plus the page's ECMP pool) keep a changed page's
// clone small; the price is the page table, ~1.6k entries (12.5 KiB) at
// 100k nodes, copied once per column whose routes change.
const PageShift = 6

// PageSize is the number of slots per page; PageMask extracts the
// in-page slot index.
const (
	PageSize = 1 << PageShift
	PageMask = PageSize - 1
)

// PageSlot is one node's route in a ColumnPage, 8 bytes wide: the flat
// EntrySlot narrowed to what a page's own pool needs. The zero slot
// means unrouted.
type PageSlot struct {
	// W is the selected weight's engine index (valid only when Routed),
	// as in EntrySlot.
	W int32
	// NhOff is the span's start in the page pool. A start of
	// math.MaxUint16 or more saturates it, and the page's side array holds
	// the exact one (ColumnPage.Start reads either).
	NhOff uint16
	// NhLen is the span's length, 0 at the destination itself. It
	// saturates at MaxPageNhLen, for a span that long or longer and for
	// any span whose start saturates NhOff: such a span ends where the
	// next routed slot's span starts, or at the pool's end — exact,
	// because every builder appends spans in slot order (see SpanEnd).
	NhLen uint8
	// Routed marks the node as holding a route.
	Routed bool
}

// MaxPageNhLen is the largest span length a PageSlot records itself; a
// slot holding it is saturated and its span's end is read off the page's
// layout.
const MaxPageNhLen = math.MaxUint8

// pageSlotBytes is the in-memory page slot width including padding.
const pageSlotBytes = int(unsafe.Sizeof(PageSlot{}))

// ColumnPage is one fixed-size run of PageSize consecutive nodes'
// slots, with its own next-hop pool. Slot starts are page-relative. The
// trailing slots of the last page (beyond the node count) stay zero.
type ColumnPage struct {
	Slots [PageSize]PageSlot
	Pool  []int32
	// Live counts routed slots in this page, so column-level stats are
	// O(pages) instead of a full slot scan.
	Live int32
	// starts is the side array of a wide page, one with a span starting
	// at math.MaxUint16 or more: the exact start of each slot whose NhOff
	// saturates, 0 elsewhere. It is nil on every other page, so a page
	// costs 552 B; only a page whose pool passes 64 Ki entries before its
	// last span pays the 256 B more.
	starts *[PageSize]int32
}

// bytes is the page's arena footprint: slot array, pool backing and the
// side array of a wide page.
func (p *ColumnPage) bytes() int {
	n := PageSize*pageSlotBytes + cap(p.Pool)*4
	if p.starts != nil {
		n += PageSize * 4
	}
	return n
}

// PagedColumn is one destination's route column in paged
// copy-on-write form. Readers address slots through the page table;
// writers exist only inside the builders — the leader's BuildDestPaged
// and DeltaDestPaged, a replica's FromPages and Patch.
type PagedColumn struct {
	// Dest is the destination node anchoring the column; N the node
	// count (len(Pages) == ceil(N/PageSize)).
	Dest int
	N    int
	// Converged reports whether the solver run reached a fixpoint. Clean
	// is the verified clean-forwarding-tree certificate (see
	// solve.Workspace.VerifyForwardTree): every routed slot's primary
	// next-hop chain reaches Dest. It licenses the sparse warm start of
	// the next delta; decoded and patched columns leave it false.
	Converged bool
	Clean     bool
	// Pages is the page table. Pages may be shared by pointer with
	// other columns; see the ownership rule above.
	Pages []*ColumnPage

	// log is the column's derivation log (solve.Workspace.DerivationLog):
	// the arcs of the weight improvements that built it, a persistent log
	// that shares every page it did not change with the previous column's.
	// Only the leader's builders set it, only on M-licensed tables, and
	// only on columns that are not Clean; it licenses the next delta's log
	// warm start, which a clean column never takes (its next delta is
	// sparse). Replicas' columns (Patch, FromPages, Column.Paged) carry
	// none.
	log *solve.Log

	// arenaBytes/live cache the column-wide footprint and routed-slot
	// totals at construction (a delta rebuild adjusts the previous
	// column's totals by its cloned pages only), so the per-swap
	// snapshot stats stay O(1) per column instead of O(pages).
	arenaBytes int
	live       int
}

// PageStats reports a paged delta rebuild's copy-on-write outcome.
type PageStats struct {
	// Cloned counts pages rebuilt for this column — on the delta path the
	// pages whose routes change, on a scratch rebuild every page; Shared
	// counts pages aliased from the previous column.
	Cloned, Shared int
	// Changes lists, ascending by node, the slots whose content (routedness,
	// weight index or ECMP sequence) differs from prev's — the rebuild is
	// the one producer of this list; the flap counter and the replication
	// encoder only consume it. Each NextHop aliases the new column's page
	// pool: read-only, and valid for as long as the column is, because
	// published pages are immutable. A column that changed in more than
	// half its slots ships whole, so at most N/2+1 patches are
	// materialised; Changed is always the exact count. Both are zero when
	// prev was nil or of another length — there is nothing to diff against.
	Changes []SlotPatch
	Changed int
}

// numPages returns the page count covering n nodes.
func numPages(n int) int { return (n + PageSize - 1) >> PageShift }

// Route returns node u's selected weight index (ok=false when unrouted
// or out of range).
func (c *PagedColumn) Route(u int) (int32, bool) {
	if u < 0 || u >= c.N {
		return 0, false
	}
	s := &c.Pages[u>>PageShift].Slots[u&PageMask]
	if !s.Routed {
		return 0, false
	}
	return s.W, true
}

// NextHops returns node u's ECMP next-hop view (aliasing the page pool;
// read-only, primary first). Nil when unrouted or at the destination.
func (c *PagedColumn) NextHops(u int) []int32 {
	if u < 0 || u >= c.N {
		return nil
	}
	return c.Pages[u>>PageShift].hops(u & PageMask)
}

// Forward resolves the forwarding path from a node to the column's
// destination following primary next hops; it fails on missing routes
// and forwarding loops. The walk needs nothing but the column itself, so
// followers forward straight off replicated columns; RIB.Forward
// delegates here.
func (c *PagedColumn) Forward(from int) (graph.Path, error) {
	if from < 0 || from >= c.N {
		return nil, fmt.Errorf("rib: node %d out of range [0,%d)", from, c.N)
	}
	var path graph.Path
	var seen visited
	u := from
	for {
		p, i := c.Pages[u>>PageShift], u&PageMask
		if !p.Slots[i].Routed {
			return nil, fmt.Errorf("rib: node %d has no route to %d", u, c.Dest)
		}
		if seen.revisits(path, u, c.N) {
			return nil, &LoopError{Node: u, Dest: c.Dest}
		}
		path = append(path, u)
		if u == c.Dest {
			return path, nil
		}
		u = int(p.Pool[p.Start(i)])
	}
}

// Entry materializes node u's legacy *Entry view (nil when unrouted).
func (c *PagedColumn) Entry(eng exec.Algebra, u int) *Entry {
	w, ok := c.Route(u)
	if !ok {
		return nil
	}
	e := &Entry{Weight: eng.Value(w)}
	for _, v := range c.NextHops(u) {
		e.NextHops = append(e.NextHops, int(v))
	}
	return e
}

// Bytes returns the column's arena footprint, cached at construction.
// Shared pages are counted in full — this reports the bytes a reader
// can reach, not the marginal cost of this generation.
func (c *PagedColumn) Bytes() int { return c.arenaBytes }

// Live returns the number of routed slots, cached at construction.
func (c *PagedColumn) Live() int { return c.live }

// resum recomputes the cached totals with one pass over the page table
// — the scratch-build path; delta rebuilds adjust incrementally.
func (c *PagedColumn) resum() {
	c.arenaBytes, c.live = 0, 0
	for _, p := range c.Pages {
		c.arenaBytes += p.bytes()
		c.live += int(p.Live)
	}
}

// Flatten re-lays the column into flat form: pages concatenated in order
// with pool offsets rebased and each span's length re-recorded in the
// flat slot's wider NhLen. Because both layouts use the same canonical
// order (slots ascending, spans appended in slot order), the result is
// bit-identical to BuildDestColumn on the same routes — the comparison
// the differentials and the benchmark's oracle gate make.
func (c *PagedColumn) Flatten() *Column {
	poolLen := 0
	for _, p := range c.Pages {
		poolLen += len(p.Pool)
	}
	f := &Column{
		Dest:      c.Dest,
		Converged: c.Converged,
		Clean:     c.Clean,
		Slots:     make([]EntrySlot, c.N),
		Pool:      make([]int32, 0, poolLen),
	}
	for pi, p := range c.Pages {
		base := pi << PageShift
		lim := PageLen(pi, c.N)
		off := int32(len(f.Pool))
		for i := 0; i < lim; i++ {
			if s := &p.Slots[i]; s.Routed {
				start := p.Start(i)
				f.Slots[base+i] = EntrySlot{W: s.W, NhOff: off + start, NhLen: slotLen(p.SpanEnd(i) - start), Routed: true}
			}
		}
		f.Pool = append(f.Pool, p.Pool...)
	}
	return f
}

// MaxWeight folds the column's routed weight indices into a running
// maximum — what a replication record's weight-name table must cover.
func (c *PagedColumn) MaxWeight(cur int) int {
	for _, p := range c.Pages {
		for i := range p.Slots { // slots past N on the last page are unrouted
			if s := &p.Slots[i]; s.Routed && int(s.W) > cur {
				cur = int(s.W)
			}
		}
	}
	return cur
}

// FromPages adopts a page table built elsewhere — the replication
// decoder's, laid out canonically straight off the wire — as an n-node
// column. pages must hold numPages(n) pages with Live counted; the
// column carries no Clean certificate.
func FromPages(dest, n int, converged bool, pages []*ColumnPage) *PagedColumn {
	c := &PagedColumn{Dest: dest, N: n, Converged: converged, Pages: pages}
	c.resum()
	return c
}

// Paged re-lays a flat column into paged copy-on-write form — the
// inverse of Flatten: c.Paged().Flatten() is bit-identical to a
// canonical c, and p.Flatten().Paged() reproduces p page for page. Each
// page pool is allocated at its exact length, as the replication
// decoder lays its pages out.
func (c *Column) Paged() *PagedColumn {
	n := len(c.Slots)
	pc := &PagedColumn{Dest: c.Dest, N: n, Converged: c.Converged, Clean: c.Clean, Pages: make([]*ColumnPage, numPages(n))}
	for pi := range pc.Pages {
		base := pi << PageShift
		slots := c.Slots[base : base+PageLen(pi, n)]
		poolLen := 0
		for i := range slots {
			if slots[i].Routed {
				poolLen += len(c.NextHops(base + i))
			}
		}
		np := &ColumnPage{Pool: make([]int32, 0, poolLen)}
		for i := range slots {
			if s := slots[i]; s.Routed {
				np.put(i, s.W, c.NextHops(base+i))
			}
		}
		pc.Pages[pi] = np
	}
	pc.resum()
	return pc
}

// SlotPatch is one slot's replacement content in a Patch: the node, and
// — when Routed — its weight index and ECMP next-hop set, primary first.
type SlotPatch struct {
	Node    int
	Routed  bool
	W       int32
	NextHop []int32
}

// Patch returns the column with the given slots replaced (patches
// strictly ascending by node) — the replication follower's counterpart
// of DeltaDestPaged. Only pages containing a patched slot are rebuilt,
// in the canonical slot-ascending/span-appended order with pools sized
// exactly; every other page is aliased from c, and the cached totals are
// adjusted per rebuilt page, so the cost is O(pages + patched pages), not
// O(N). By the page-local layout argument at the top of this file the
// result is page-for-page what a from-scratch build of the patched routes
// would lay out.
//
// Patches arrive off the wire, so everything a reader later relies on is
// checked here: nodes in range and ascending, next hops inside [0,N), no
// next-hop set at the destination and a non-empty one at every other
// routed node (Forward indexes the primary unconditionally). The result
// carries no Clean certificate: that is a solver licence, and nothing
// solves on patched columns.
func (c *PagedColumn) Patch(converged bool, patches []SlotPatch) (*PagedColumn, error) {
	last := -1
	for i := range patches {
		p := &patches[i]
		if p.Node <= last || p.Node >= c.N {
			return nil, fmt.Errorf("rib: patch node %d out of order or out of range [0,%d)", p.Node, c.N)
		}
		last = p.Node
		if !p.Routed {
			continue
		}
		if (p.Node == c.Dest) != (len(p.NextHop) == 0) {
			return nil, fmt.Errorf("rib: patch gives node %d toward %d a next-hop set of %d", p.Node, c.Dest, len(p.NextHop))
		}
		for _, h := range p.NextHop {
			if h < 0 || int(h) >= c.N {
				return nil, fmt.Errorf("rib: patch next hop %d at node %d out of range [0,%d)", h, p.Node, c.N)
			}
		}
	}
	nc := &PagedColumn{Dest: c.Dest, N: c.N, Converged: converged,
		Pages: append([]*ColumnPage(nil), c.Pages...), arenaBytes: c.arenaBytes, live: c.live}
	for lo := 0; lo < len(patches); {
		pi := patches[lo].Node >> PageShift
		hi := lo + 1
		for hi < len(patches) && patches[hi].Node>>PageShift == pi {
			hi++
		}
		old := c.Pages[pi]
		np := patchPage(old, pi, c.N, patches[lo:hi])
		nc.Pages[pi] = np
		nc.arenaBytes += np.bytes() - old.bytes()
		nc.live += int(np.Live - old.Live)
		lo = hi
	}
	return nc, nil
}

// patchPage rebuilds page pi of an n-node column with the given patches
// (all inside the page, ascending) applied over prev.
func patchPage(prev *ColumnPage, pi, n int, patches []SlotPatch) *ColumnPage {
	poolLen := len(prev.Pool)
	for i := range patches {
		p := &patches[i]
		poolLen -= len(prev.span(p.Node & PageMask))
		if p.Routed {
			poolLen += len(p.NextHop)
		}
	}
	np := &ColumnPage{Pool: make([]int32, 0, poolLen)}
	base := pi << PageShift
	i := 0
	for k := range patches {
		p := &patches[k]
		at := p.Node - base
		np.transplantRun(prev, i, at)
		if p.Routed {
			np.put(at, p.W, p.NextHop)
		}
		i = at + 1
	}
	np.transplantRun(prev, i, PageLen(pi, n))
	return np
}

// SetSlot writes slot i as routed with weight w and a span of n next
// hops starting at page-pool offset off, and counts it live; the caller
// appends the span to Pool. Builders call it for ascending i only, on a
// page they allocated, which is what keeps every page in the canonical
// layout: the replication decoder, which appends its pools afterwards,
// lays its slots out with it.
func (p *ColumnPage) SetSlot(i int, w int32, off, n int32) {
	if off >= math.MaxUint16 {
		if p.starts == nil {
			p.starts = new([PageSize]int32)
		}
		p.starts[i], off, n = off, math.MaxUint16, MaxPageNhLen
	}
	p.Slots[i] = PageSlot{W: w, NhOff: uint16(off), NhLen: uint8(min(n, MaxPageNhLen)), Routed: true}
	p.Live++
}

// put writes slot i as routed with weight w and ECMP span nh, appending
// the span to the page pool. Like SetSlot, it is called for ascending i
// only.
func (p *ColumnPage) put(i int, w int32, nh []int32) {
	p.SetSlot(i, w, int32(len(p.Pool)), int32(len(nh)))
	p.Pool = append(p.Pool, nh...)
}

// transplantRun copies slots [i, j) and their spans from the same page
// of a previous column — the copy-on-write path for a run of slots a
// rebuild did not touch, shared by the leader's delta refill and the
// follower's patch. The canonical layout keeps a run's spans contiguous
// and in slot order, so the run costs one pool append and a SetSlot per
// routed slot at its start shifted by the pool's growth; unrouted slots
// are zero in every builder, so skipping them is exact. Like put, it
// must be called for ascending, disjoint ranges.
func (p *ColumnPage) transplantRun(prev *ColumnPage, i, j int) {
	for i < j && !prev.Slots[i].Routed {
		i++
	}
	if i == j {
		return
	}
	last := j - 1
	for !prev.Slots[last].Routed {
		last--
	}
	lo := prev.Start(i)
	shift := int32(len(p.Pool)) - lo
	for k := i; k <= last; k++ {
		if s := &prev.Slots[k]; s.Routed {
			start := prev.Start(k)
			p.SetSlot(k, s.W, start+shift, prev.SpanEnd(k)-start)
		}
	}
	p.Pool = append(p.Pool, prev.Pool[lo:prev.SpanEnd(last)]...)
}

// holds reports whether slot i carries the given route: the same
// routedness and, when routed, the same weight index and ECMP sequence.
func (p *ColumnPage) holds(i int, routed bool, w int32, nh []int32) bool {
	s := &p.Slots[i]
	return s.Routed == routed && (!routed || s.W == w && slices.Equal(p.span(i), nh))
}

// Start returns slot i's span start in the page pool: the slot's NhOff,
// or the side array's entry where NhOff saturates.
func (p *ColumnPage) Start(i int) int32 {
	if off := p.Slots[i].NhOff; off < math.MaxUint16 {
		return int32(off)
	}
	return p.starts[i]
}

// SpanEnd returns the page-pool offset where slot i's span ends, read
// off the slot or, when its NhLen is saturated, off the layout (see
// PageSlot). The slot must be routed.
func (p *ColumnPage) SpanEnd(i int) int32 {
	if s := &p.Slots[i]; s.NhLen < MaxPageNhLen {
		return int32(s.NhOff) + int32(s.NhLen)
	}
	return p.saturatedEnd(i)
}

// saturatedEnd is SpanEnd for a saturated slot i: the next routed slot's
// start, or the end of the pool — the canonical layout (spans appended
// in slot order) leaves no gap between them. The loop lives here so that
// SpanEnd stays inlinable.
func (p *ColumnPage) saturatedEnd(i int) int32 {
	for j := i + 1; j < PageSize; j++ {
		if p.Slots[j].Routed {
			return p.Start(j)
		}
	}
	return int32(len(p.Pool))
}

// span returns slot i's ECMP span as a view of the page pool (empty when
// unrouted).
func (p *ColumnPage) span(i int) []int32 { return p.Pool[p.Start(i):p.SpanEnd(i)] }

// hops returns slot i's ECMP span as a capped view of the page pool, nil
// when the slot is unrouted or holds no next hop (the destination).
func (p *ColumnPage) hops(i int) []int32 {
	if !p.Slots[i].Routed {
		return nil
	}
	start, end := p.Start(i), p.SpanEnd(i)
	if start == end {
		return nil
	}
	return p.Pool[start:end:end]
}

// PageLen is the number of slots page pi holds in an n-node column
// (PageSize except on a partial last page).
func PageLen(pi, n int) int {
	if lim := n - pi<<PageShift; lim < PageSize {
		return lim
	}
	return PageSize
}

// fillPage builds page pi of a paged column from scratch solver state:
// slots ascending, each routed non-destination slot's ECMP span appended
// through the shared appendNextHopSet scan into buf, the caller's
// scratch, and the page pool copied out of it at its exact length, as the
// follower's decoder and patchPage size theirs. It returns buf for the
// next page.
func fillPage(eng exec.Algebra, g *graph.Graph, raw solve.Raw, dest, pi int, buf []int32) (*ColumnPage, []int32) {
	np := &ColumnPage{}
	buf = buf[:0]
	base := pi << PageShift
	for i, lim := 0, PageLen(pi, g.N); i < lim; i++ {
		u := base + i
		if !raw.Routed[u] {
			continue
		}
		off := len(buf)
		if u != dest {
			buf = appendNextHopSet(eng, g, raw.Routed, raw.W, raw.NextHop, u, buf)
		}
		np.SetSlot(i, raw.W[u], int32(off), int32(len(buf)-off))
	}
	np.Pool = make([]int32, len(buf))
	copy(np.Pool, buf)
	return np, buf
}

// pagesFromRaw builds a full page table from scratch solver state.
func pagesFromRaw(eng exec.Algebra, g *graph.Graph, raw solve.Raw, dest int) []*ColumnPage {
	pages := make([]*ColumnPage, numPages(g.N))
	var buf []int32
	for pi := range pages {
		pages[pi], buf = fillPage(eng, g, raw, dest, pi, buf)
	}
	return pages
}

// BuildDestPaged computes the paged column for a single destination
// from scratch — the solver run (Workspace.ScratchRaw, whose solver the
// algebra's licence picks) and ECMP scan of BuildDestColumn, laid out in
// pages, plus the derivation log the run left unless the column is Clean.
func BuildDestPaged(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, ws *solve.Workspace) (*PagedColumn, error) {
	if dest < 0 || dest >= g.N {
		return nil, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	raw := ws.ScratchRaw(eng, g, dest, origin)
	c := &PagedColumn{Dest: dest, N: g.N, Converged: raw.Converged}
	if c.Clean = raw.Converged && ws.VerifyForwardTree(eng, raw); !c.Clean {
		c.log = ws.DerivationLog(g, dest)
	}
	c.Pages = pagesFromRaw(eng, g, raw, dest)
	c.resum()
	return c, nil
}

// slotDiff accumulates the slots that differ between two generations of a
// column: every difference is counted, the first limit of them are kept
// as patches. A column that changed in more than n/2 of its n slots is
// shipped whole, so n/2+1 patches are all any consumer can use.
type slotDiff struct {
	patches []SlotPatch
	count   int
	limit   int
}

// page compares slots [0,lim) of one page across two generations and
// records the ones whose content differs, as patches aliasing next's
// pool. base is the page's first node.
func (d *slotDiff) page(prev, next *ColumnPage, base, lim int) {
	for i := 0; i < lim; i++ {
		ns := &next.Slots[i]
		if prev.holds(i, ns.Routed, ns.W, next.span(i)) {
			continue
		}
		d.count++
		if len(d.patches) == d.limit {
			continue
		}
		patch := SlotPatch{Node: base + i, Routed: ns.Routed}
		if ns.Routed {
			patch.W, patch.NextHop = ns.W, next.hops(i)
		}
		d.patches = append(d.patches, patch)
	}
}

// DiffPaged compares two generations of one destination's column (equal
// N) and returns what PageStats.Changes and Changed hold after a delta
// rebuild: the changed slots ascending by node, capped at N/2+1 patches,
// and their exact count. Pages shared by pointer are skipped, so the
// cost tracks the pages that were rebuilt. It serves every rebuild that
// did not come out of the delta drain — DeltaDestPaged's from-scratch
// fallbacks, and callers that ran BuildDestPaged themselves.
func DiffPaged(prev, next *PagedColumn) ([]SlotPatch, int) {
	d := slotDiff{limit: next.N/2 + 1}
	for pi, np := range next.Pages {
		if op := prev.Pages[pi]; op != np {
			d.page(op, np, pi<<PageShift, PageLen(pi, next.N))
		}
	}
	return d.patches, d.count
}

// DeltaDestPaged recomputes the paged column for a single destination
// after the given arc toggles, warm-starting from prev. g and disabled
// carry the whole batch; toggles may leave out toggles that cannot move
// prev (serve's per-toggle skip rule: fails and restores on a clean
// prev, restores alone on a converged one under an M kernel, which the
// log and dense warm starts take), and every other caller passes them
// all. When the delta drain runs, each node of the redo set
// — the touched nodes plus the handed toggles' tails, the only nodes
// whose slot can have moved — has its slot recomputed and compared with
// prev's; only pages whose routes change are rebuilt (with patchPage,
// the follower's page builder), every other page is shared with prev by
// pointer, and the page table itself is shared when no page changes. The
// swap's data-plane cost is O(frontier), not O(N). On any fallback the
// column is rebuilt from scratch (every page cloned). Either way the
// result flattens bit-identically to BuildDestColumn on g, and the
// returned PageStats says which slots differ from prev: on the delta
// path straight from those comparisons, on a fallback through DiffPaged.
// The warm start is the solver's pick (solve.Workspace.BellmanFordDeltaLog):
// sparse from a clean prev, the derivation log from a logged one on an M
// table, dense otherwise; the result carries the log that run wrote, if
// any and if the result is not Clean.
func DeltaDestPaged(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, origin value.V, ws *solve.Workspace, prev *PagedColumn, toggles []solve.ArcToggle) (*PagedColumn, solve.DeltaStats, PageStats, error) {
	if dest < 0 || dest >= g.N {
		return nil, solve.DeltaStats{}, PageStats{}, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	scratch := func(c *PagedColumn) PageStats {
		ps := PageStats{Cloned: len(c.Pages)}
		if prev != nil && prev.N == c.N {
			ps.Changes, ps.Changed = DiffPaged(prev, c)
		}
		return ps
	}
	warmable := prev != nil && prev.N == g.N && prev.Converged
	if warmable {
		_, warmable = prev.Route(dest)
	}
	if !warmable {
		col, err := BuildDestPaged(eng, g, dest, origin, ws)
		if err != nil {
			return nil, solve.DeltaStats{}, PageStats{}, err
		}
		return col, solve.DeltaStats{}, scratch(col), nil
	}
	raw, st := ws.BellmanFordDeltaLog(eng, g, disabled, dest, origin, (*warmColumn)(prev), prev.Clean, prev.log, toggles, 0)
	c := &PagedColumn{Dest: dest, N: g.N, Converged: raw.Converged, Clean: st.Clean}
	if !c.Clean {
		c.log = ws.DerivationLog(g, dest)
	}
	if !st.UsedDelta {
		c.Pages = pagesFromRaw(eng, g, raw, dest)
		c.resum()
		return c, st, scratch(c), nil
	}
	// Copy-on-write delta. Raw solver state is valid at the redo set and,
	// on the sparse path, at the out-rows of the nodes it moved (those
	// pulled); a redo node whose route did not move keeps its weight, so
	// its span is edited from prev's (editSpan), which reads only the
	// heads the delta moved, the arcs it toggled and parallel arcs.
	redo := append(make([]int, 0, len(st.Touched)+len(toggles)), st.Touched...)
	for _, t := range toggles {
		if x := g.Arcs[t.Arc].From; x != dest {
			redo = append(redo, x)
		}
	}
	slices.Sort(redo)
	redo = slices.Compact(redo)
	c.Pages, c.arenaBytes, c.live = prev.Pages, prev.arenaBytes, prev.live
	var patches []SlotPatch
	pool := make([]int32, 0, 32) // changed spans of the current page
	cloned := 0
	for lo := 0; lo < len(redo); {
		pi := redo[lo] >> PageShift
		old, first := prev.Pages[pi], len(patches)
		for ; lo < len(redo) && redo[lo]>>PageShift == pi; lo++ {
			u := redo[lo]
			routed, at := raw.Routed[u], len(pool)
			switch {
			case !routed || u == dest:
			case st.Moved != nil && !st.Moved.Has(u):
				pool = editSpan(eng, g, raw, st.Moved, prev, toggles, u, pool)
			default:
				pool = appendNextHopSet(eng, g, raw.Routed, raw.W, raw.NextHop, u, pool)
			}
			if old.holds(u&PageMask, routed, raw.W[u], pool[at:]) {
				pool = pool[:at]
				continue
			}
			if patches == nil {
				patches = make([]SlotPatch, 0, len(redo))
			}
			p := SlotPatch{Node: u, Routed: routed}
			if routed {
				p.W, p.NextHop = raw.W[u], pool[at:]
			}
			patches = append(patches, p)
		}
		if len(patches) == first {
			continue
		}
		// The page's routes changed: lay it out as the follower will, then
		// re-point the patches from the scratch pool into the page's own.
		np := patchPage(old, pi, g.N, patches[first:])
		for k := first; k < len(patches); k++ {
			patches[k].NextHop = np.hops(patches[k].Node & PageMask)
		}
		pool = pool[:0]
		if cloned == 0 {
			c.Pages = slices.Clone(prev.Pages)
		}
		cloned++
		c.Pages[pi] = np
		c.arenaBytes += np.bytes() - old.bytes()
		c.live += int(np.Live - old.Live)
	}
	ps := PageStats{Cloned: cloned, Shared: len(c.Pages) - cloned, Changes: patches, Changed: len(patches)}
	if limit := g.N/2 + 1; len(patches) > limit {
		ps.Changes = patches[:limit]
	}
	return c, st, ps, nil
}

// editSpan appends the ECMP set of redo node u, routed at the weight it
// held in prev (u is outside moved), to pool — what appendNextHopSet
// would, read off prev's span instead of u's whole row. With u's weight
// fixed, an arc's membership can change only if its head moved or the
// arc itself toggled, so the walk goes through u's row in order and:
//
//   - an arc to a head outside moved keeps its membership, read off
//     prev's span: its heads other than the primary are a subsequence of
//     the row's heads, and a cursor matched greedily against the heads
//     met (failed handed toggles, gone from the view, included at their
//     arc index) pairs the entry with its arc whenever the head is met
//     on one arc alone;
//   - an arc to a moved head, a handed toggle, an arc to prev's primary
//     (held out of the rest of prev's span) and an arc one of whose
//     parallels (graph.Parallel) could own the cursor's entry are
//     evaluated, weights read from raw for moved heads and from prev for
//     the rest.
//
// Arcs to the new primary, raw.NextHop[u], are skipped as the full scan
// skips them.
func editSpan(eng exec.Algebra, g *graph.Graph, raw solve.Raw, moved solve.NodeSet, prev *PagedColumn, toggles []solve.ArcToggle, u int, pool []int32) []int32 {
	span := prev.NextHops(u)
	p, rest := span[0], span[1:]
	primary, wu := int32(raw.NextHop[u]), raw.W[u]
	pool = append(pool, primary)
	var buf [4]solve.ArcToggle
	own := buf[:0]
	for _, t := range toggles {
		if g.Arcs[t.Arc].From == u {
			own = append(own, t)
		}
	}
	slices.SortFunc(own, func(a, b solve.ArcToggle) int { return a.Arc - b.Arc })
	tab := exec.Tables(eng)
	ties := func(label, v int32) bool {
		var r bool
		var w int32
		if moved.Has(int(v)) {
			r, w = raw.Routed[v], raw.W[v]
		} else {
			w, r = prev.Route(int(v))
		}
		switch {
		case !r:
			return false
		case tab != nil:
			return tab.Rank[tab.Fn[int(label)*tab.N+int(w)]] == tab.Rank[wu]
		}
		return eng.Equiv(eng.Apply(int(label), w), wu)
	}
	arcs := g.Out(u)
	c, ti := 0, 0
	for k, h := range g.OutHops(u) {
		a, v := int(arcs[k]), h.Node
		toggled := false
		for ; ti < len(own) && own[ti].Arc <= a; ti++ {
			if own[ti].Arc == a {
				toggled = true
			} else if y := int32(g.Arcs[own[ti].Arc].To); c < len(rest) && rest[c] == y {
				c++
			}
		}
		matched := c < len(rest) && rest[c] == v
		if matched {
			c++
		}
		switch {
		case v == primary:
		case !toggled && v != p && !moved.Has(int(v)) && !g.Parallel(a):
			if matched {
				pool = append(pool, v)
			}
		case ties(h.Label, v):
			pool = append(pool, v)
		}
	}
	return pool
}

// warmColumn is a previous column as the delta solver's warm start
// (solve.WarmLoader). The conversion from *PagedColumn allocates nothing,
// and a weight load reads the slot alone, never the page's next-hop pool.
type warmColumn PagedColumn

// Weight returns node u's routedness and weight index (0 when unrouted:
// unrouted slots are zero).
func (c *warmColumn) Weight(u int) (bool, int32) {
	s := &c.Pages[u>>PageShift].Slots[u&PageMask]
	return s.Routed, s.W
}

// NextHop returns node u's primary next hop, -1 at the destination and
// at unrouted nodes.
func (c *warmColumn) NextHop(u int) int {
	p, i := c.Pages[u>>PageShift], u&PageMask
	if !p.Slots[i].Routed || u == c.Dest {
		return -1
	}
	return int(p.Pool[p.Start(i)])
}
