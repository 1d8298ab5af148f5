// Package graph provides the network substrate of the metarouting
// library: directed graphs whose arcs are labelled with arc-function
// indices of a routing algebra, plus topology generators (random, ring,
// grid, two-level region topologies, and the classic oscillation gadgets)
// and bounded simple-path enumeration used for ground-truth optima.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// Arc is a directed edge (From → To) labelled with the index of an arc
// function in the algebra's function set. In the functional model of §II,
// the weight of a route that carries traffic From → To is obtained by
// applying the arc's function to the weight advertised by To.
type Arc struct {
	From, To int
	// Label indexes the arc's function in the algebra's function set.
	Label int
}

// Hop is one packed adjacency entry: the node at the far end of an arc
// (the head in an out-row, the tail in an in-row) and the arc's label.
// It is everything a relaxation reads about an arc, so solver loops walk
// rows of Hops and never dereference Arcs.
type Hop struct {
	Node, Label int32
}

// csr is the packed adjacency index of one direction: row u occupies
// positions start[u]..start[u+1] of hops, and arcs[k] is the index into
// Arcs of the arc behind hops[k] for the few callers that need arc
// identity. Rows hold arcs in ascending index order.
type csr struct {
	start []int32
	hops  []Hop
	arcs  []int32
}

func (c *csr) hopRow(u int) []Hop {
	lo, hi := c.start[u], c.start[u+1]
	return c.hops[lo:hi:hi]
}

func (c *csr) arcRow(u int) []int32 {
	lo, hi := c.start[u], c.start[u+1]
	return c.arcs[lo:hi:hi]
}

// overRow is one filtered row of an overlay view.
type overRow struct {
	hops []Hop
	arcs []int32
}

// rowFilter is a fixed 256-bit membership filter over an overlay map's
// keys, hashed by a node's low eight bits: a clear bit proves the row is
// not overlaid, so the accessors probe the map only for rows that can
// be in it — on a view with a handful of live failures, a few rows in a
// hundred instead of every row a sweep reads. It lives inside the Graph
// value, so a view costs no allocation for it.
type rowFilter [4]uint64

func (f *rowFilter) add(u int)      { f[uint(u)>>6&3] |= 1 << (uint(u) & 63) }
func (f *rowFilter) may(u int) bool { return f[uint(u)>>6&3]>>(uint(u)&63)&1 != 0 }

// Graph is a directed graph with labelled arcs. Nodes are 0..N-1.
type Graph struct {
	// N is the node count.
	N int
	// Arcs lists every directed arc.
	Arcs []Arc

	out csr // out-rows: arcs with From == u, Hop.Node = To
	in  csr // in-rows: arcs with To == v, Hop.Node = From

	// outOver/inOver, on views built by WithArcToggled/WithArcsToggled,
	// overlay the shared base rows: a present key returns the overlay row,
	// an absent key falls through to out/in. The maps are frozen at
	// construction (views are immutable), so concurrent reads are safe.
	// outMay/inMay cover their keys (all zero on a graph with no overlay).
	outOver map[int]*overRow
	inOver  map[int]*overRow
	outMay  rowFilter
	inMay   rowFilter

	// base, for views built by MaskArcs/WithArcToggled, is the unmasked
	// graph whose full adjacency rows seed copy-on-write row rebuilds.
	base *Graph

	// parallel marks, by arc index, the arcs that share both endpoints
	// with another arc; built on first use, on the unmasked graph only
	// (see Parallel).
	parallelOnce sync.Once
	parallel     []uint64
}

// New builds a graph from a node count and arcs; it validates endpoints
// and that counts and labels fit the int32 adjacency rows.
func New(n int, arcs []Arc) (*Graph, error) {
	if n > math.MaxInt32 || len(arcs) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes / %d arcs exceed the int32 index range", n, len(arcs))
	}
	g := &Graph{N: n, Arcs: arcs}
	for _, a := range arcs {
		if a.From < 0 || a.From >= n || a.To < 0 || a.To >= n {
			return nil, fmt.Errorf("graph: arc %v out of range [0,%d)", a, n)
		}
		if a.From == a.To {
			return nil, fmt.Errorf("graph: self-loop at %d", a.From)
		}
		if a.Label < 0 || a.Label > math.MaxInt32 {
			return nil, fmt.Errorf("graph: arc %v label out of range [0,%d]", a, math.MaxInt32)
		}
	}
	g.out, g.in = buildIndex(n, arcs, nil)
	return g, nil
}

// MustNew is New but panics on invalid input.
func MustNew(n int, arcs []Arc) *Graph {
	g, err := New(n, arcs)
	if err != nil {
		panic(err)
	}
	return g
}

// ErrNotEnumerable is CheckLabels' verdict on an infinite, sampled
// function set: an arc label is an index into the enumeration, so over
// such a set no labelled topology means anything.
var ErrNotEnumerable = errors.New("function set is not enumerable; labels have no meaning")

// CheckLabels reports the first arc whose label is not an arc-function
// index of an algebra with numFns functions — the check every entry
// point taking a topology from outside runs before a solver indexes the
// function set with it. numFns < 0 (fn.Set.Size of a sampled set) is
// ErrNotEnumerable whatever the labels.
func (g *Graph) CheckLabels(numFns int) error {
	if numFns < 0 {
		return fmt.Errorf("graph: %w", ErrNotEnumerable)
	}
	for i, a := range g.Arcs {
		if a.Label >= numFns {
			return fmt.Errorf("graph: arc %d (%d→%d) label %d out of range [0,%d)", i, a.From, a.To, a.Label, numFns)
		}
	}
	return nil
}

// buildIndex constructs both packed adjacency indexes with a counting
// pass: six flat arrays however many nodes there are. disabled, when
// non-nil, omits masked arcs (the MaskArcs path).
func buildIndex(n int, arcs []Arc, disabled []bool) (out, in csr) {
	// Degrees are counted two slots up, so that after the prefix sum slot
	// u+1 is row u's fill cursor; once filled it has advanced to row u's
	// end, which is row u+1's start — start is then the first n+1 slots.
	oc := make([]int32, n+2)
	ic := make([]int32, n+2)
	m := 0
	for i, a := range arcs {
		if i < len(disabled) && disabled[i] {
			continue
		}
		oc[a.From+2]++
		ic[a.To+2]++
		m++
	}
	for u := 2; u < n+2; u++ {
		oc[u] += oc[u-1]
		ic[u] += ic[u-1]
	}
	out = csr{start: oc[:n+1], hops: make([]Hop, m), arcs: make([]int32, m)}
	in = csr{start: ic[:n+1], hops: make([]Hop, m), arcs: make([]int32, m)}
	for i, a := range arcs {
		if i < len(disabled) && disabled[i] {
			continue
		}
		k := oc[a.From+1]
		oc[a.From+1]++
		out.hops[k], out.arcs[k] = Hop{Node: int32(a.To), Label: int32(a.Label)}, int32(i)
		k = ic[a.To+1]
		ic[a.To+1]++
		in.hops[k], in.arcs[k] = Hop{Node: int32(a.From), Label: int32(a.Label)}, int32(i)
	}
	return out, in
}

// Out returns the indices (into Arcs) of arcs leaving u. The row is
// capped: an append on it cannot reach its neighbour.
func (g *Graph) Out(u int) []int32 {
	if g.outMay.may(u) {
		if r := g.outOver[u]; r != nil {
			return r.arcs
		}
	}
	return g.out.arcRow(u)
}

// OutHops returns u's out-row in packed form: OutHops(u)[k] is the head
// and label of arc Out(u)[k].
func (g *Graph) OutHops(u int) []Hop {
	if g.outMay.may(u) {
		if r := g.outOver[u]; r != nil {
			return r.hops
		}
	}
	return g.out.hopRow(u)
}

// In returns the indices (into Arcs) of arcs entering v, capped like Out.
func (g *Graph) In(v int) []int32 {
	if g.inMay.may(v) {
		if r := g.inOver[v]; r != nil {
			return r.arcs
		}
	}
	return g.in.arcRow(v)
}

// InHops returns v's in-row in packed form: InHops(v)[k] is the tail and
// label of arc In(v)[k].
func (g *Graph) InHops(v int) []Hop {
	if g.inMay.may(v) {
		if r := g.inOver[v]; r != nil {
			return r.hops
		}
	}
	return g.in.hopRow(v)
}

// origin resolves the unmasked graph underlying a view (itself for a
// plain graph).
func (g *Graph) origin() *Graph {
	if g.base != nil {
		return g.base
	}
	return g
}

// MaskArcs returns an immutable view of g whose adjacency omits every
// arc i with disabled[i] true (a shorter slice leaves the tail enabled).
// The view shares g's Arcs slice, so arc indices — and therefore arc
// labels and LinkEvent references — stay valid across views; only the
// adjacency index is rebuilt. Every solver and the RIB builder traverse
// graphs exclusively through the row accessors, so a masked view routes
// exactly as a freshly built graph containing only the enabled arcs. A
// mask with no arc disabled needs no second index: the unmasked graph
// itself is returned (graphs are immutable, and WithArcsToggled chains
// off a plain graph as it does off a view).
func (g *Graph) MaskArcs(disabled []bool) *Graph {
	b := g.origin()
	if !slices.Contains(disabled[:min(len(disabled), len(b.Arcs))], true) {
		return b
	}
	v := &Graph{N: g.N, Arcs: g.Arcs, base: b}
	v.out, v.in = buildIndex(g.N, b.Arcs, disabled)
	return v
}

// WithArcToggled returns a copy-on-write successor of view g after arc
// ai changed state: disabled must already reflect the new state of every
// arc, and g must reflect the pre-toggle state of the mask. Only the two
// adjacency rows touching the arc's endpoints are rebuilt; every other
// row is reached through the shared base arrays, making a topology event
// O(active failures + deg) — no per-view copy of the N row headers.
// The receiver is left untouched.
func (g *Graph) WithArcToggled(ai int, disabled []bool) *Graph {
	return g.WithArcsToggled([]int{ai}, disabled)
}

// WithArcsToggled is WithArcToggled for a batch. The view shares the
// unmasked base adjacency arrays outright and carries a sparse overlay
// holding exactly the rows that currently contain a disabled arc, so a
// k-toggle storm costs O(overlay + Σdeg of the batch endpoints) — the
// overlay is bounded by the number of live failures, not by N, and a
// restored row's entry is dropped rather than stored. disabled must
// already reflect the new state of every arc, and g must reflect the
// pre-batch state of the mask (any view produced by this package under
// that mask qualifies). The receiver is left untouched.
func (g *Graph) WithArcsToggled(ais []int, disabled []bool) *Graph {
	b := g.origin()
	v := &Graph{N: b.N, Arcs: b.Arcs, out: b.out, in: b.in, base: b}
	v.outOver = make(map[int]*overRow, len(g.outOver)+len(ais))
	v.inOver = make(map[int]*overRow, len(g.inOver)+len(ais))
	if g == b || g.outOver != nil {
		// The parent already addresses the base arrays, so the rows that
		// can differ from base under the new mask are the parent's overlay
		// rows plus this batch's endpoint rows. Untouched overlay rows are
		// still exact (only the batch's arcs changed state) and carry over
		// by reference.
		for u, row := range g.outOver {
			v.outOver[u] = row
		}
		for u, row := range g.inOver {
			v.inOver[u] = row
		}
		for _, ai := range ais {
			// Refiltering a row twice when toggles share an endpoint is
			// harmless (setRow is idempotent) and batches are small.
			a := b.Arcs[ai]
			setRow(v.outOver, &b.out, a.From, disabled)
			setRow(v.inOver, &b.in, a.To, disabled)
		}
		v.setFilters()
		return v
	}
	// The parent is a dense re-index (MaskArcs), whose rows don't alias
	// the base arrays — rebuild the overlay from the mask itself: the
	// rows differing from base are exactly the endpoint rows of every
	// disabled arc. One O(M) mask sweep; later swaps chain off this
	// view's overlay on the fast path above.
	for i, down := range disabled {
		if !down || i >= len(b.Arcs) {
			continue
		}
		a := b.Arcs[i]
		if _, ok := v.outOver[a.From]; !ok {
			v.outOver[a.From] = filterRow(&b.out, a.From, disabled)
		}
		if _, ok := v.inOver[a.To]; !ok {
			v.inOver[a.To] = filterRow(&b.in, a.To, disabled)
		}
	}
	v.setFilters()
	return v
}

// setFilters derives both row filters from the finished overlay maps —
// from the keys that are left, not the ones a batch touched, so a row a
// restore dropped from the overlay stops costing a probe.
func (g *Graph) setFilters() {
	for u := range g.outOver {
		g.outMay.add(u)
	}
	for v := range g.inOver {
		g.inMay.add(v)
	}
}

// setRow installs base row u, filtered, into an overlay map, or deletes
// the entry when no arc was filtered out — a fully restored row is
// served from the shared base array again, which is what keeps overlay
// size proportional to live failures instead of toggle history.
func setRow(over map[int]*overRow, c *csr, u int, disabled []bool) {
	if row := filterRow(c, u, disabled); row != nil {
		over[u] = row
	} else {
		delete(over, u)
	}
}

// filterRow returns base row u without its disabled arcs, exactly sized,
// or nil when the row holds none.
func filterRow(c *csr, u int, disabled []bool) *overRow {
	hops, arcs := c.hopRow(u), c.arcRow(u)
	keep := 0
	for _, ai := range arcs {
		if int(ai) >= len(disabled) || !disabled[ai] {
			keep++
		}
	}
	if keep == len(arcs) {
		return nil
	}
	row := &overRow{hops: make([]Hop, 0, keep), arcs: make([]int32, 0, keep)}
	for k, ai := range arcs {
		if int(ai) >= len(disabled) || !disabled[ai] {
			row.hops = append(row.hops, hops[k])
			row.arcs = append(row.arcs, ai)
		}
	}
	return row
}

// Parallel reports whether arc ai shares its tail and its head with
// another arc of the unmasked graph — whether it is one of several
// parallel arcs, masked or not. The marks are a bitset over arc indices,
// built once per topology on first use with one pass over the out-rows,
// and shared by every view.
func (g *Graph) Parallel(ai int) bool {
	b := g.origin()
	b.parallelOnce.Do(b.markParallel)
	return b.parallel[ai>>6]>>(uint(ai)&63)&1 != 0
}

// markParallel builds the Parallel bitset. last[v] holds 1 + the out
// index position of the last arc to v seen, so an entry at or past the
// current row's start is an earlier arc of the same row.
func (g *Graph) markParallel() {
	bits := make([]uint64, (len(g.Arcs)+63)>>6)
	last := make([]int32, g.N)
	set := func(ai int32) { bits[ai>>6] |= 1 << (uint(ai) & 63) }
	for u := 0; u < g.N; u++ {
		lo := g.out.start[u]
		arcs := g.out.arcRow(u)
		for k, h := range g.out.hopRow(u) {
			if p := last[h.Node] - 1; p >= lo {
				set(arcs[k])
				set(g.out.arcs[p])
			}
			last[h.Node] = lo + int32(k) + 1
		}
	}
	g.parallel = bits
}

// RevIn returns the unmasked base graph, whose In/InHops rows list every
// arc entering a node — including arcs masked out of the view g — in
// ascending arc-index order. Arc indices are stable across views, so
// delta solvers seed dirty in-neighbours from it without sweeping the
// full arc list, skipping disabled arc indices themselves. Every view of
// one topology returns the identical graph.
func (g *Graph) RevIn() *Graph { return g.origin() }

// String renders a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N, len(g.Arcs))
}

// Path is a node sequence v0, v1, …, vk with arcs (v0,v1)…(v(k-1),vk).
type Path []int

// ArcsOf resolves a path to the arc indices it traverses, choosing the
// first matching arc for each hop. ok is false if some hop has no arc.
func (g *Graph) ArcsOf(p Path) (idxs []int, ok bool) {
	for i := 0; i+1 < len(p); i++ {
		found := -1
		for k, h := range g.OutHops(p[i]) {
			if int(h.Node) == p[i+1] {
				found = int(g.Out(p[i])[k])
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		idxs = append(idxs, found)
	}
	return idxs, true
}

// SimplePaths enumerates every simple (loop-free) path from src to dst as
// arc-index sequences, up to maxLen hops. It is exponential and intended
// for ground-truth computation on small graphs; maxLen ≤ 0 means N-1.
func (g *Graph) SimplePaths(src, dst, maxLen int) [][]int {
	if maxLen <= 0 {
		maxLen = g.N - 1
	}
	var out [][]int
	visited := make([]bool, g.N)
	var cur []int
	var rec func(u int)
	rec = func(u int) {
		if u == dst {
			cp := make([]int, len(cur))
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		if len(cur) == maxLen {
			return
		}
		visited[u] = true
		ais := g.Out(u)
		for k, h := range g.OutHops(u) {
			v := int(h.Node)
			if visited[v] {
				continue
			}
			cur = append(cur, int(ais[k]))
			rec(v)
			cur = cur[:len(cur)-1]
		}
		visited[u] = false
	}
	rec(src)
	return out
}

// Reachable reports which nodes can reach dst following arc directions
// (i.e. reverse reachability from dst).
func (g *Graph) Reachable(dst int) []bool {
	seen := make([]bool, g.N)
	seen[dst] = true
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.InHops(v) {
			u := int(h.Node)
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return seen
}

// LabelPicker assigns arc labels during generation.
type LabelPicker func(r *rand.Rand, from, to int) int

// UniformLabels picks labels uniformly from [0, nLabels).
func UniformLabels(nLabels int) LabelPicker {
	return func(r *rand.Rand, _, _ int) int { return r.Intn(nLabels) }
}

// Random generates a GNP-style random digraph: each ordered pair (u,v),
// u ≠ v, carries an arc with probability p. A spanning in-tree toward
// node 0 is added so that every node can reach node 0 — destination 0 is
// the conventional experiment target.
func Random(r *rand.Rand, n int, p float64, pick LabelPicker) *Graph {
	// Expected arc count: p per ordered pair plus the connectivity pass.
	expect := int(float64(n)*float64(n-1)*p) + n
	arcs := make([]Arc, 0, expect)
	have := make(map[[2]int]bool, expect)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if r.Float64() < p {
				arcs = append(arcs, Arc{From: u, To: v, Label: pick(r, u, v)})
				have[[2]int{u, v}] = true
			}
		}
	}
	// Ensure reverse reachability of 0: give node u an arc to a random
	// lower-numbered node if it has no path yet; connecting u → u-1 …
	// suffices and keeps the graph sparse.
	for u := 1; u < n; u++ {
		v := r.Intn(u)
		if !have[[2]int{u, v}] {
			arcs = append(arcs, Arc{From: u, To: v, Label: pick(r, u, v)})
			have[[2]int{u, v}] = true
		}
	}
	return MustNew(n, arcs)
}

// ScaleFree generates a preferential-attachment digraph: nodes join one
// at a time and attach m bidirectional links to existing nodes chosen
// with probability proportional to current degree (Barabási–Albert
// style) — the heavy-tailed shape of Internet-like topologies.
func ScaleFree(r *rand.Rand, n, m int, pick LabelPicker) *Graph {
	if m < 1 {
		m = 1
	}
	// Each joining node attaches at most m undirected links (2 arcs
	// each); preallocating from that bound keeps 10k–100k-node
	// generation from thrashing the GC on slice growth.
	expect := 2 * m * n
	arcs := make([]Arc, 0, expect)
	have := make(map[[2]int]bool, expect)
	// targets holds one entry per half-degree, so uniform sampling from
	// it is degree-proportional.
	targets := make([]int, 1, expect+1)
	add := func(u, v int) {
		if u == v || have[[2]int{u, v}] {
			return
		}
		have[[2]int{u, v}] = true
		have[[2]int{v, u}] = true
		arcs = append(arcs, Arc{From: u, To: v, Label: pick(r, u, v)})
		arcs = append(arcs, Arc{From: v, To: u, Label: pick(r, v, u)})
		targets = append(targets, u, v)
	}
	for u := 1; u < n; u++ {
		links := m
		if u < m {
			links = u
		}
		attached := false
		for i := 0; i < links; i++ {
			v := targets[r.Intn(len(targets))]
			if v < u {
				before := len(arcs)
				add(u, v)
				attached = attached || len(arcs) > before
			}
		}
		if !attached {
			// Guarantee connectivity even if every draw collided.
			add(u, r.Intn(u))
		}
	}
	return MustNew(n, arcs)
}

// Ring generates a bidirectional ring of n nodes.
func Ring(r *rand.Rand, n int, pick LabelPicker) *Graph {
	arcs := make([]Arc, 0, 2*n)
	for u := 0; u < n; u++ {
		v := (u + 1) % n
		arcs = append(arcs, Arc{From: u, To: v, Label: pick(r, u, v)})
		arcs = append(arcs, Arc{From: v, To: u, Label: pick(r, v, u)})
	}
	return MustNew(n, arcs)
}

// Grid generates a rows×cols bidirectional grid.
func Grid(r *rand.Rand, rows, cols int, pick LabelPicker) *Graph {
	id := func(i, j int) int { return i*cols + j }
	expect := 2 * (rows*(cols-1) + cols*(rows-1))
	if expect < 0 {
		expect = 0
	}
	arcs := make([]Arc, 0, expect)
	add := func(u, v int) {
		arcs = append(arcs, Arc{From: u, To: v, Label: pick(r, u, v)})
		arcs = append(arcs, Arc{From: v, To: u, Label: pick(r, v, u)})
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				add(id(i, j), id(i, j+1))
			}
			if i+1 < rows {
				add(id(i, j), id(i+1, j))
			}
		}
	}
	return MustNew(rows*cols, arcs)
}

// Regions describes a two-level topology for policy-partition experiments
// (BGP ASes, OSPF areas): nodes grouped into regions, dense arcs inside a
// region, sparse arcs between regions. RegionOf maps node → region.
type Regions struct {
	Graph    *Graph
	RegionOf []int
	// Inter marks, per arc index, whether the arc crosses regions.
	Inter []bool
}

// TwoLevel generates a Regions topology: k regions of size s each;
// intra-region arcs with probability pIntra (plus an intra-region ring for
// connectivity), and interPairs random inter-region arc pairs (plus a ring
// over region gateways). Intra labels are drawn from pickIntra and inter
// labels from pickInter, so the caller can map them onto the (2,(id,g))
// and (1,(f,κ_c)) function families of a scoped product.
func TwoLevel(r *rand.Rand, k, s int, pIntra float64, interPairs int,
	pickIntra, pickInter LabelPicker) *Regions {
	n := k * s
	regionOf := make([]int, n)
	for i := range regionOf {
		regionOf[i] = i / s
	}
	var arcs []Arc
	var inter []bool
	add := func(u, v int, isInter bool) {
		var l int
		if isInter {
			l = pickInter(r, u, v)
		} else {
			l = pickIntra(r, u, v)
		}
		arcs = append(arcs, Arc{From: u, To: v, Label: l})
		inter = append(inter, isInter)
	}
	// Intra-region rings + random extras.
	for reg := 0; reg < k; reg++ {
		base := reg * s
		for i := 0; i < s; i++ {
			u, v := base+i, base+(i+1)%s
			if s > 1 {
				add(u, v, false)
				add(v, u, false)
			}
		}
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				if i != j && r.Float64() < pIntra {
					add(base+i, base+j, false)
				}
			}
		}
	}
	// Gateway ring over regions (node 0 of each region) + random extras.
	for reg := 0; reg < k; reg++ {
		u, v := reg*s, ((reg+1)%k)*s
		if k > 1 {
			add(u, v, true)
			add(v, u, true)
		}
	}
	for i := 0; i < interPairs; i++ {
		ru, rv := r.Intn(k), r.Intn(k)
		if ru == rv {
			continue
		}
		u := ru*s + r.Intn(s)
		v := rv*s + r.Intn(s)
		add(u, v, true)
		add(v, u, true)
	}
	// Deduplicate arcs (keep first label).
	type key struct{ u, v int }
	seen := make(map[key]bool)
	var dedupArcs []Arc
	var dedupInter []bool
	for i, a := range arcs {
		k := key{a.From, a.To}
		if seen[k] {
			continue
		}
		seen[k] = true
		dedupArcs = append(dedupArcs, a)
		dedupInter = append(dedupInter, inter[i])
	}
	return &Regions{Graph: MustNew(n, dedupArcs), RegionOf: regionOf, Inter: dedupInter}
}

// GoodGadget is the classic convergent policy gadget: a 4-node topology
// (0 = destination) where nodes 1–3 have conflicting but satisfiable
// preferences. Arc labels are left 0; callers relabel per experiment.
func GoodGadget() *Graph {
	return MustNew(4, []Arc{
		{1, 0, 0}, {2, 0, 0}, {3, 0, 0},
		{1, 2, 0}, {2, 3, 0}, {3, 1, 0},
	})
}

// BadGadgetArcs returns the BAD GADGET topology of persistent route
// oscillation [16]: destination 0 and nodes 1, 2, 3 in a cycle, each
// preferring the route through its clockwise neighbour over its direct
// route. The labels returned are indices into the preference scheme used
// by protocol tests: label 0 = direct arc, label 1 = via-neighbour arc.
func BadGadgetArcs() (*Graph, []Arc) {
	arcs := []Arc{
		{1, 0, 0}, {2, 0, 0}, {3, 0, 0},
		{1, 2, 1}, {2, 3, 1}, {3, 1, 1},
	}
	return MustNew(4, arcs), arcs
}

// Degrees returns the sorted out-degree sequence, a cheap structural
// fingerprint used by generator tests.
func (g *Graph) Degrees() []int {
	d := make([]int, g.N)
	for _, a := range g.Arcs {
		d[a.From]++
	}
	sort.Ints(d)
	return d
}
