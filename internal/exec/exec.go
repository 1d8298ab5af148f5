// Package exec is the unified algebra execution layer: every routing
// algorithm in the repository — the five solvers of internal/solve, the
// asynchronous protocol simulator, the RIB builder and the licensed
// routers — consumes a single Algebra interface whose weights are dense
// int32 indices.
//
// Two implementations exist. The compiled backend wraps the dense tables
// of internal/compile: weight application and preference comparison are
// array lookups, removing all interface dispatch and map traffic from the
// hot path. The dynamic backend wraps an *ost.OrderTransform directly and
// hash-conses every weight it encounters, so index equality coincides
// with value equality and the two backends are observationally identical
// — the engine-differential tests assert exactly that for every solver
// and the simulator.
//
// A third, tiered backend (tiered.go) sits between them: it hash-conses
// like the dynamic backend but memoises Apply and the preorder into dense
// tables over the first-touch hot sub-carrier, so algebras For does not
// compile — infinite carriers, leaves past AutoLimit, products over a
// partial order past it — still execute mostly off tables.
//
// Sharing across goroutines: the compiled backend is immutable and the
// tiered backend is concurrent by construction (memo hits read an
// atomically published table generation, misses serialize on one
// mutex), so both are shared as they are. Only the dynamic backend
// needs Concurrent's mutex wrapper.
//
// For(...) picks the backend from the algebra alone: finite algebras
// whose compile builds no order matrix past AutoLimit elements are
// compiled once (memoised per order transform) and everything else runs
// tiered. No flag or caller overrides the pick; New
// builds a named backend only for the differential tests and benchmarks
// that substitute one engine for another. This realizes the design goal
// that the compiled form is the universal execution substrate rather than
// a Dijkstra-only special case.
package exec

import (
	"fmt"
	"sync"

	"metarouting/internal/compile"
	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// Mode selects an execution backend.
type Mode string

// The engine modes an Algebra reports and New accepts.
const (
	// ModeDynamic always interprets the order transform directly.
	ModeDynamic Mode = "dynamic"
	// ModeCompiled requires dense tables; New fails if the algebra is not
	// finitely compilable.
	ModeCompiled Mode = "compiled"
	// ModeTiered interprets with first-touch dense memo tables over the
	// hot sub-carrier (see tiered.go). For runs every algebra it does
	// not compile on it.
	ModeTiered Mode = "tiered"
)

// Algebra is the execution interface every routing algorithm consumes.
// Weights are int32 indices; Intern converts an originated value.V into
// index form and Value resolves indices back for results and diagnostics.
// Index equality coincides with value equality (==) on both backends.
//
// The compiled and tiered backends are safe for concurrent use; the
// dynamic backend interns lazily and must go through Concurrent before
// it is shared across goroutines. No backend invokes the order
// transform's closures from two goroutines at once.
type Algebra interface {
	// Name labels the underlying algebra.
	Name() string
	// Mode reports the backend kind (ModeDynamic, ModeCompiled or
	// ModeTiered).
	Mode() Mode
	// Source returns the order transform the engine executes.
	Source() *ost.OrderTransform
	// NumFns returns the arc-function count (graph labels must be below
	// it), or -1 for an infinite (sampled) function set.
	NumFns() int
	// Intern maps a carrier element to its weight index. The compiled
	// backend fails on values outside the carrier; the interning
	// backends never fail, so callers holding a value from outside the
	// program check it with ost.OrderTransform.CheckWeight first.
	Intern(v value.V) (int32, error)
	// Value resolves a weight index to its carrier element.
	Value(w int32) value.V
	// Apply applies arc function label to weight w.
	Apply(label int, w int32) int32
	// Leq, Lt and Equiv are the algebra's preorder on weight indices.
	Leq(a, b int32) bool
	Lt(a, b int32) bool
	Equiv(a, b int32) bool
}

// AutoLimit is the ceiling For compiles under: the most elements an
// order matrix the compile builds may have a side of, and the square
// root of the most cells a function table may have
// (compile.Within). What a compiled total order keeps is small — 2·F·N
// bytes of function table plus 2·N of rank — but an order matrix is
// n² bytes, and a leaf's is filled value by value and checked against
// its rank. Ranks compose over the expression's operators, so only the
// leaves, and composites over an operand with no rank (a partial order
// such as tags), build one: a ranked composite compiles up to
// compile.New's 2¹⁵ hard cap whatever its carrier, while a single leaf
// past 4 096 elements (4096² ≈ 16.7M cells of matrix) runs tiered. New
// with ModeCompiled compiles with no ceiling below the hard cap.
const AutoLimit = 4096

// dynamic executes an order transform directly, hash-consing weights so
// that index equality is value equality.
type dynamic struct {
	ot    *ost.OrderTransform
	elems []value.V
	index map[value.V]int32
}

// NewDynamic builds the dynamic (interpreting) backend. It never fails
// and accepts infinite carriers and function sets.
func NewDynamic(t *ost.OrderTransform) Algebra {
	return &dynamic{ot: t, index: make(map[value.V]int32, 16)}
}

func (d *dynamic) Name() string                { return d.ot.Name }
func (d *dynamic) Mode() Mode                  { return ModeDynamic }
func (d *dynamic) Source() *ost.OrderTransform { return d.ot }

func (d *dynamic) NumFns() int { return d.ot.F.Size() }

func (d *dynamic) intern(v value.V) int32 {
	if w, ok := d.index[v]; ok {
		return w
	}
	w := int32(len(d.elems))
	d.elems = append(d.elems, v)
	d.index[v] = w
	return w
}

func (d *dynamic) Intern(v value.V) (int32, error) { return d.intern(v), nil }
func (d *dynamic) Value(w int32) value.V           { return d.elems[w] }

func (d *dynamic) Apply(label int, w int32) int32 {
	return d.intern(d.ot.F.Fns[label].Apply(d.elems[w]))
}

func (d *dynamic) Leq(a, b int32) bool { return d.ot.Ord.Leq(d.elems[a], d.elems[b]) }
func (d *dynamic) Lt(a, b int32) bool  { return d.ot.Ord.Lt(d.elems[a], d.elems[b]) }
func (d *dynamic) Equiv(a, b int32) bool {
	return d.ot.Ord.Equiv(d.elems[a], d.elems[b])
}

// tabled executes the dense-table form built by internal/compile over a
// total preorder: every comparison is two rank reads.
type tabled struct {
	ot *ost.OrderTransform
	c  *compile.Compiled
	// top is the index of the one weight at the top rank, the order's ⊤
	// (-1 when the top rank is shared, and on a tabledPartial, whose order
	// has no rank).
	top int32
}

// tabledPartial is tabled for an order that got no rank (incomparable
// weights, or not a preorder): comparisons read the order matrices.
type tabledPartial struct{ tabled }

// Compile builds the compiled backend. It fails exactly when compile.New
// does: infinite carriers or function sets, or carriers above the 2¹⁵
// hard cap.
func Compile(t *ost.OrderTransform) (Algebra, error) { return compiled(t, 1<<15) }

// compiled builds the compiled backend from compile.Within(t, limit).
func compiled(t *ost.OrderTransform, limit int) (Algebra, error) {
	c, err := compile.Within(t, limit)
	if err != nil {
		return nil, err
	}
	if c.Rank == nil {
		return &tabledPartial{tabled{ot: t, c: c, top: -1}}, nil
	}
	e := &tabled{ot: t, c: c, top: -1}
	for w, r := range c.Rank {
		if int(r) == c.N-1 {
			e.top = int32(w)
		}
	}
	return e, nil
}

func (e *tabled) Name() string                { return e.ot.Name }
func (e *tabled) Mode() Mode                  { return ModeCompiled }
func (e *tabled) Source() *ost.OrderTransform { return e.ot }
func (e *tabled) NumFns() int                 { return e.c.NumFns }

func (e *tabled) Intern(v value.V) (int32, error) {
	if w, ok := e.c.Index(v); ok {
		return int32(w), nil
	}
	return 0, fmt.Errorf("exec: %s is not in the compiled carrier of %s",
		value.Format(v), e.ot.Name)
}

func (e *tabled) Value(w int32) value.V { return e.c.Elems[w] }

func (e *tabled) Apply(label int, w int32) int32 { return e.c.Apply(label, w) }

func (e *tabled) Leq(a, b int32) bool   { r := e.c.Rank; return r[a] <= r[b] }
func (e *tabled) Lt(a, b int32) bool    { r := e.c.Rank; return r[a] < r[b] }
func (e *tabled) Equiv(a, b int32) bool { r := e.c.Rank; return r[a] == r[b] }

func (e *tabledPartial) Leq(a, b int32) bool   { return e.c.Leq(a, b) }
func (e *tabledPartial) Lt(a, b int32) bool    { return e.c.Lt(a, b) }
func (e *tabledPartial) Equiv(a, b int32) bool { return e.c.Equiv(a, b) }

// Tables returns the flat tables behind a compiled engine whose preorder
// is total — Fn with stride N, and Rank — for the two loops that are the
// whole cost of a from-scratch build, the synchronous sweep and the ECMP
// scan, to index directly instead of paying two interface calls per
// relaxation. It is nil for every other engine: tiered, dynamic and
// locked ones have no fixed tables, and a compiled order with
// incomparable elements has no rank. Callers keep their interface loop
// for those, so which loop runs follows from the engine and nothing else.
func Tables(a Algebra) *compile.Compiled {
	if e, ok := a.(*tabled); ok {
		return e.c
	}
	return nil
}

// cachedCompile memoises the compiled backend on the order transform
// itself (ost.OrderTransform.Memo), so that repeated solver calls on the
// same algebra (the shape of every experiment sweep) pay the table build
// once and the tables die with the transform. Failed compiles are
// remembered too.
func cachedCompile(t *ost.OrderTransform) (Algebra, bool) {
	eng, ok := t.Memo(func() any {
		eng, err := compiled(t, AutoLimit)
		if err != nil {
			return nil
		}
		return eng
	}).(Algebra)
	return eng, ok
}

// For picks the execution backend for t: compiled (memoised) when the
// algebra is finite, compiles cleanly without building an order matrix
// past AutoLimit elements (or a function table past AutoLimit² cells),
// and every origin in origins interns; tiered otherwise. So a ranked
// composite such as lex(delay(255,3), hops(32)), 8 448 elements over
// leaves of 256 and 33, compiles, while a leaf past AutoLimit, a product
// over a partial order past it, and an infinite carrier run tiered,
// executing the hot sub-carrier off dense tables. It is the constructor
// every production solve path uses, which is what makes the compiled
// form the universal substrate.
func For(t *ost.OrderTransform, origins ...value.V) Algebra {
	if t.Finite() {
		if eng, ok := cachedCompile(t); ok {
			for _, o := range origins {
				if _, err := eng.Intern(o); err != nil {
					return NewTiered(t)
				}
			}
			return eng
		}
	}
	return NewTiered(t)
}

// New builds the backend m names, whatever For would pick: the compiled
// one fails with the compile error, or when an origin does not intern.
// It is how the differential tests and benchmarks substitute backends.
func New(t *ost.OrderTransform, m Mode, origins ...value.V) (Algebra, error) {
	switch m {
	case ModeDynamic:
		return NewDynamic(t), nil
	case ModeTiered:
		return NewTiered(t), nil
	case ModeCompiled:
		eng, err := Compile(t)
		if err != nil {
			return nil, err
		}
		for _, o := range origins {
			if _, err := eng.Intern(o); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}
	return nil, fmt.Errorf("exec: unknown engine mode %q", m)
}

// Concurrent returns an engine safe for use from multiple goroutines —
// the sharing contract the serve snapshot builder relies on. Compiled
// backends are immutable after construction and tiered backends
// synchronize internally (lock-free on memo hits), so both are returned
// unchanged; the dynamic backend interns lazily and is wrapped in a
// mutex. Wrapping is idempotent.
func Concurrent(a Algebra) Algebra {
	if a.Mode() == ModeCompiled {
		return a
	}
	switch a.(type) {
	case *tiered, *locked:
		return a
	}
	return &locked{inner: a}
}

// Tiers reports how many weights an engine has interned and how many of
// them its dense memo tables can cover. While interned ≤ hotCapacity
// every repeated operation is a table read; past it the excess weights
// are interpreted under a mutex on every call. The compiled backend
// interns nothing (0, 0); the dynamic backend has no tables (n, 0).
func Tiers(a Algebra) (interned, hotCapacity int) {
	switch e := a.(type) {
	case *tiered:
		g := e.gen.Load()
		return int(g.elems.n.Load()), int(g.hotN)
	case *locked:
		e.mu.Lock()
		defer e.mu.Unlock()
		return Tiers(e.inner)
	case *dynamic:
		return len(e.elems), 0
	}
	return 0, 0
}

// locked serializes every weight operation of the dynamic backend.
type locked struct {
	mu    sync.Mutex
	inner Algebra
}

func (l *locked) Name() string                { return l.inner.Name() }
func (l *locked) Mode() Mode                  { return l.inner.Mode() }
func (l *locked) Source() *ost.OrderTransform { return l.inner.Source() }
func (l *locked) NumFns() int                 { return l.inner.NumFns() }

func (l *locked) Intern(v value.V) (int32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Intern(v)
}

func (l *locked) Value(w int32) value.V {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Value(w)
}

func (l *locked) Apply(label int, w int32) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Apply(label, w)
}

func (l *locked) Leq(a, b int32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Leq(a, b)
}

func (l *locked) Lt(a, b int32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Lt(a, b)
}

func (l *locked) Equiv(a, b int32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Equiv(a, b)
}

// Top returns the weight index of the order's ⊤ without interning it.
// ok is false when the order has no ⊤ or the engine has not interned it
// yet — then no weight the engine has handed out is ⊤. known is false
// where Top cannot answer: on a compiled order without a rank or with a
// shared top rank, and on engines this package did not build (wrappers).
// A compiled total order names its rank-top; an interning engine looks
// ⊤ up in its intern table, under its lock, so weight ids stay exactly
// what the solves alone assign.
func Top(a Algebra) (w int32, ok, known bool) {
	switch e := a.(type) {
	case *tabled:
		return e.top, e.top >= 0, e.top >= 0
	case *tiered:
		e.mu.Lock()
		defer e.mu.Unlock()
		top, has := e.ot.Ord.Top()
		if !has {
			return 0, false, true
		}
		w, ok = e.index[top]
		return w, ok, true
	case *dynamic:
		top, has := e.ot.Ord.Top()
		if !has {
			return 0, false, true
		}
		w, ok = e.index[top]
		return w, ok, true
	case *locked:
		e.mu.Lock()
		defer e.mu.Unlock()
		return Top(e.inner)
	}
	return 0, false, false
}

// MustIntern interns v and panics on failure — for callers that already
// validated the origin against the engine (For and New do).
func MustIntern(e Algebra, v value.V) int32 {
	w, err := e.Intern(v)
	if err != nil {
		panic(err)
	}
	return w
}
