package exec

// This file holds the tiered backend: the middle rung between the
// dense-table compiled engine (whose compile builds no order matrix past
// AutoLimit elements) and the pure interpreter. Infinite carriers, big
// leaves and products over a partial order blow past that ceiling — the
// quadratic preorder tables stop paying — but their *working set*
// under any one topology is tiny: a solver run touches the weights
// reachable from the origins, which is orders of magnitude smaller
// than the carrier. The tiered engine therefore compiles the hot
// sub-carrier on first touch: weights are hash-consed exactly like the
// dynamic backend (so index assignment — and with it every solver
// result — is bit-identical to pure interpretation), and the first
// TierLimit indices get dense memo tables for Apply/Leq/Lt/Equiv that
// fill as operations run. Cold-tail weights (indices ≥ the hot
// capacity) fall back to interpreting the order transform directly.
//
// Memoization is sound because order transforms are pure: Apply and
// the preorder are deterministic value functions, and hash-consing
// already canonicalizes indices, so replaying a cached answer is
// observationally identical to recomputing it. A memo hit also cannot
// perturb index assignment: the result it replays was interned when
// the entry was filled, and a dynamic backend re-running the same
// operation would find the same value in its hash map rather than
// allocating a fresh index. The tiered-vs-dynamic differential tests
// assert this bit-identity across solvers and entry forms.
//
// Tables grow geometrically (256 → 512 → … → TierLimit square for the
// order memo) so small dynamic algebras do not pay the full ~16 MB
// footprint a saturated 4096-hot-set order table costs; growth stops
// at TierLimit and everything beyond stays interpreted.
//
// Concurrency. The engine is safe for concurrent use without a
// wrapper, and a memo hit takes no lock. The hot tables live in one
// generation published through an atomic pointer: its hot capacity,
// row stride and label-row directory length never change, its memo
// cells are read and written with atomic operations, and the element
// table it points at is append-only. Apply/Leq/Lt/Equiv/Value load the
// generation once and answer from it; only a miss — an unfilled cell,
// a cold-tail index, Intern — takes the engine's one mutex, under
// which the order transform is evaluated, the result hash-consed, the
// cell filled and, when the intern table outgrows the tier, a wider
// generation built and published. So index assignment is hash-cons
// order under the lock, and the order transform's closures are never
// invoked concurrently — the contract the mutex wrapper gives the
// dynamic backend.
//
// A reader holding a superseded generation is still right. A cell only
// ever holds what the interpreter would compute, so a filled cell is
// correct in every generation and an unfilled one sends the reader to
// the miss path, which re-reads the current generation under the lock.
// And a generation loaded at entry covers every index the caller can
// legally hold: an index reaches a caller through Intern's mutex, an
// atomic cell load, or the caller's own synchronization, each of which
// orders the element write (and any growth it triggered) before the
// load of the generation.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// TierLimit is the hot sub-carrier capacity of the tiered backend: the
// first TierLimit distinct weights touched (hash-cons order) get dense
// memo tables; later weights are interpreted. It deliberately equals
// AutoLimit — the table shapes the compiled backend proved cheap are
// exactly the ones the hot tier reuses.
const TierLimit = AutoLimit

// tierLabelCap bounds how many arc-function labels get Apply memo
// rows, and with it the size of a generation's label-row directory;
// labels past the cap stay uncached.
const tierLabelCap = 4096

// tierInitial is the initial hot capacity; tables double up to
// TierLimit as the intern table grows past them.
const tierInitial = 256

// Bits of one order-memo byte (per hot (a,b) pair): a known/answer
// pair for each of the three relations.
const (
	leqKnown = 1 << iota
	leqBit
	ltKnown
	ltBit
	equivKnown
	equivBit
)

// elemTable is the append-only index → value table. Chunk 0 holds the
// first elemChunk0 weights and chunk k ≥ 1 the next elemChunk0<<(k-1),
// so the table doubles without moving an element and a reader never
// sees a slot move under it. Slots and chunk headers are written once,
// under the engine mutex, before the index that names them can reach
// another goroutine; n is the published length.
type elemTable struct {
	n      atomic.Int32
	chunks [32 - elemShift][]value.V
}

// elemChunk0 = 1<<elemShift is the first chunk's length: 1 KB of
// interface words, about what a small working set's append-grown slice
// would hold.
const (
	elemShift  = 6
	elemChunk0 = 1 << elemShift
)

// elemSlot locates index w: its chunk and the offset inside it.
func elemSlot(w int32) (chunk int, off int32) {
	if w < elemChunk0 {
		return 0, w
	}
	chunk = bits.Len32(uint32(w)) - elemShift
	return chunk, w - elemChunk0<<(chunk-1)
}

func (t *elemTable) at(w int32) value.V {
	k, off := elemSlot(w)
	return t.chunks[k][off]
}

// push appends v and publishes it. Callers hold the engine mutex.
func (t *elemTable) push(v value.V) int32 {
	w := t.n.Load()
	k, off := elemSlot(w)
	if t.chunks[k] == nil {
		size := elemChunk0
		if k > 0 {
			size <<= k - 1
		}
		t.chunks[k] = make([]value.V, size)
	}
	t.chunks[k][off] = v
	t.n.Store(w + 1)
	return w
}

// generation is one published layout of the hot tables. hotN, stride,
// len(fn) and elems are fixed for its lifetime; the cells of ord and of
// the fn rows, and the fn directory entries, are filled in place by the
// miss path (atomic stores under the engine mutex) and read lock-free.
//
// ord packs one order byte per hot (a,b) pair four to a word, row a at
// ord[a*stride:], so a byte is read with one atomic word load. The
// cells are plain words driven through atomic.LoadUint32/StoreUint32
// rather than atomic.Uint32 values so that grow can memmove filled rows
// into a generation nobody else can see yet. An fn row holds result+1
// per hot weight (0 = unfilled) for the same reason: a fresh row is
// just zeroed memory.
type generation struct {
	hotN   int32
	stride int32
	ord    []uint32
	fn     []atomic.Pointer[[]int32]
	elems  *elemTable
}

func newGeneration(hotN int32, labels int, elems *elemTable) *generation {
	stride := (hotN + 3) / 4
	return &generation{
		hotN:   hotN,
		stride: stride,
		ord:    make([]uint32, int(hotN)*int(stride)),
		fn:     make([]atomic.Pointer[[]int32], labels),
		elems:  elems,
	}
}

// hot reports whether both indices fall inside the generation's memo.
func (g *generation) hot(a, b int32) bool { return a < g.hotN && b < g.hotN }

// ordCell returns the order byte of hot pair (a,b) in the low byte of
// its result (the bits above belong to the pair's row neighbours).
func (g *generation) ordCell(a, b int32) uint32 {
	return atomic.LoadUint32(&g.ord[a*g.stride+b>>2]) >> (uint(b&3) * 8)
}

// setOrd ors bits into the order byte of hot pair (a,b). Writers are
// serialized by the engine mutex, so load-then-store loses nothing.
func (g *generation) setOrd(a, b int32, fill uint32) {
	word := &g.ord[a*g.stride+b>>2]
	atomic.StoreUint32(word, atomic.LoadUint32(word)|fill<<(uint(b&3)*8))
}

// applied returns the memoised fn[label](w) of a hot weight.
func (g *generation) applied(label int, w int32) (int32, bool) {
	if w < g.hotN && label < len(g.fn) {
		if row := g.fn[label].Load(); row != nil {
			if c := atomic.LoadInt32(&(*row)[w]); c != 0 {
				return c - 1, true
			}
		}
	}
	return 0, false
}

// tiered interprets an order transform with first-touch dense memo
// tables over the hot sub-carrier. Safe for concurrent use: hits read
// the published generation, everything else serializes on mu (see the
// file comment).
type tiered struct {
	ot *ost.OrderTransform
	// limit caps the hot capacity: TierLimit in production, smaller in
	// the white-box tests that exercise the cold tail.
	limit int32
	gen   atomic.Pointer[generation]

	// mu is the miss path: it guards index, every write to the current
	// generation and its element table, generation replacement, and
	// every call into ot.
	mu    sync.Mutex
	index map[value.V]int32
}

// NewTiered builds the tiered backend. Like the dynamic backend it
// never fails and accepts infinite carriers and function sets; unlike
// it, the hot sub-carrier executes off dense tables once touched, and
// it may be shared across goroutines as it is.
func NewTiered(t *ost.OrderTransform) Algebra {
	return newTieredCap(t, TierLimit)
}

// newTieredCap builds a tiered backend with an explicit hot-capacity
// ceiling; the white-box tests use tiny caps to exercise the cold tail
// without interning thousands of weights.
func newTieredCap(t *ost.OrderTransform, limit int32) *tiered {
	hot := int32(tierInitial)
	if hot > limit {
		hot = limit
	}
	labels := len(t.F.Fns)
	if labels > tierLabelCap {
		labels = tierLabelCap
	}
	e := &tiered{ot: t, limit: limit, index: make(map[value.V]int32, 16)}
	e.gen.Store(newGeneration(hot, labels, new(elemTable)))
	return e
}

func (e *tiered) Name() string                { return e.ot.Name }
func (e *tiered) Mode() Mode                  { return ModeTiered }
func (e *tiered) Source() *ost.OrderTransform { return e.ot }
func (e *tiered) NumFns() int                 { return e.ot.F.Size() }

// grow publishes a generation of hot capacity n (≤ limit) carrying
// every filled cell of g over. Callers hold mu, so nothing writes g
// during the copy and plain reads of its cells are ordered after every
// earlier fill.
func (e *tiered) grow(g *generation, n int32) {
	wide := newGeneration(n, len(g.fn), g.elems)
	for a := int32(0); a < g.hotN; a++ {
		copy(wide.ord[a*wide.stride:], g.ord[a*g.stride:(a+1)*g.stride])
	}
	for i := range g.fn {
		if row := g.fn[i].Load(); row != nil {
			wider := make([]int32, n)
			copy(wider, *row)
			wide.fn[i].Store(&wider)
		}
	}
	e.gen.Store(wide)
}

// intern hash-conses v. Callers hold mu.
func (e *tiered) intern(v value.V) int32 {
	if w, ok := e.index[v]; ok {
		return w
	}
	g := e.gen.Load()
	w := g.elems.push(v)
	e.index[v] = w
	// Keep the hot tier covering the intern table while it still fits
	// under the cap: doubling amortizes the copy, first-touch order
	// decides membership.
	if w >= g.hotN && g.hotN < e.limit {
		n := g.hotN
		for w >= n && n < e.limit {
			n *= 2
		}
		if n > e.limit {
			n = e.limit
		}
		e.grow(g, n)
	}
	return w
}

func (e *tiered) Intern(v value.V) (int32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.intern(v), nil
}

func (e *tiered) Value(w int32) value.V { return e.gen.Load().elems.at(w) }

func (e *tiered) Apply(label int, w int32) int32 {
	if out, ok := e.gen.Load().applied(label, w); ok {
		return out
	}
	return e.applyMiss(label, w)
}

func (e *tiered) applyMiss(label int, w int32) int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.gen.Load()
	if out, ok := g.applied(label, w); ok {
		return out // filled while this caller waited for the lock
	}
	out := e.intern(e.ot.F.Fns[label].Apply(g.elems.at(w)))
	g = e.gen.Load() // intern may have published a wider generation
	if w < g.hotN && label < len(g.fn) {
		row := g.fn[label].Load()
		if row == nil {
			fresh := make([]int32, g.hotN)
			row = &fresh
			g.fn[label].Store(row)
		}
		atomic.StoreInt32(&(*row)[w], out+1)
	}
	return out
}

func (e *tiered) Leq(a, b int32) bool {
	if g := e.gen.Load(); g.hot(a, b) {
		if c := g.ordCell(a, b); c&leqKnown != 0 {
			return c&leqBit != 0
		}
	}
	return e.ordMiss(a, b, leqKnown)
}

func (e *tiered) Lt(a, b int32) bool {
	if g := e.gen.Load(); g.hot(a, b) {
		if c := g.ordCell(a, b); c&ltKnown != 0 {
			return c&ltBit != 0
		}
	}
	return e.ordMiss(a, b, ltKnown)
}

// Equiv is memoised from Ord.Equiv itself, in its own bit pair: the
// stock preorders all satisfy Equiv = Leq ∧ Leq-converse (the compiled
// backend is built on that identity), but tiered serves arbitrary
// dynamic algebras and may not assume it.
func (e *tiered) Equiv(a, b int32) bool {
	if g := e.gen.Load(); g.hot(a, b) {
		if c := g.ordCell(a, b); c&equivKnown != 0 {
			return c&equivBit != 0
		}
	}
	return e.ordMiss(a, b, equivKnown)
}

// ordMiss answers one order relation — named by its known bit, whose
// answer bit is the next one up — by interpretation, and memoises the
// answer when the pair is hot.
func (e *tiered) ordMiss(a, b int32, known uint32) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.gen.Load()
	hot := g.hot(a, b)
	if hot {
		if c := g.ordCell(a, b); c&known != 0 {
			return c&(known<<1) != 0
		}
	}
	va, vb := g.elems.at(a), g.elems.at(b)
	var ans bool
	switch known {
	case leqKnown:
		ans = e.ot.Ord.Leq(va, vb)
	case ltKnown:
		ans = e.ot.Ord.Lt(va, vb)
	default:
		ans = e.ot.Ord.Equiv(va, vb)
	}
	if hot {
		fill := known
		if ans {
			fill |= known << 1
		}
		g.setOrd(a, b, fill)
	}
	return ans
}

// hotSize reports the current hot capacity (white-box tests).
func (e *tiered) hotSize() int32 { return e.gen.Load().hotN }
