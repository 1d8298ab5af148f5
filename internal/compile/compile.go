// Package compile specializes finite order transforms (and bisemigroups)
// into dense integer tables for the routing hot path: carrier elements
// become indices, functions become one flat lookup table, and the
// preorder becomes a rank vector (order matrices when it is not total).
// The compiled form removes all interface dispatch and map traffic from
// the inner loops of route computation.
//
// The tables are built the way internal/core infers properties, from
// the combinator structure: only the expression's leaves are evaluated
// value by value, and every operator above them composes its operands'
// tables (see New), so the value-level work is bounded by the leaves
// and not by the root.
//
// This package only builds tables; execution lives behind the unified
// internal/exec.Algebra interface, which every solver and the protocol
// simulator consume — the engine-differential tests and the
// BenchmarkEngineDynamicVsCompiled* suite measure the tables against the
// dynamic representation.
package compile

import (
	"errors"
	"fmt"

	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// Compiled is a finite order transform in dense-table form: one flat
// function table and, when the preorder is total, one rank vector — an
// Apply is one load, a comparison two loads and an integer compare, and
// the whole form is 2·F·N + 2·N bytes. An order with incomparable
// elements (or one that is not a preorder at all) keeps the N×N
// matrices instead of a rank. The tables license nothing: which
// algorithm runs over them is the algebra's plan (solve.NewPlan), read
// from its inferred judgements on every backend alike; the tables only
// make that plan's loops cheaper. A test recomputes M and strict I cell
// by cell as an oracle for that plan.
type Compiled struct {
	// N is the carrier size; weights are indices 0..N-1.
	N int
	// Elems maps index → original value. It is the carrier's own element
	// list, shared and never written.
	Elems []value.V
	// NumFns is the function count F.
	NumFns int
	// Fn[f*N+w] applies function f to weight w. Indices fit uint16
	// because New refuses carriers above 1<<15.
	Fn []uint16
	// Rank, when non-nil, decides the whole preorder: a ≲ b iff
	// Rank[a] ≤ Rank[b], a < b iff Rank[a] < Rank[b], a ~ b iff
	// Rank[a] == Rank[b]. Rank[a] is the number of elements strictly
	// below a.
	Rank []uint16
	// LeqBits[a*N+b] is 1 iff a ≲ b; LtBits likewise for a < b. Both
	// are nil when Rank is set.
	LeqBits, LtBits []uint8

	// index is Index's lookup, composed like the tables: a map only at
	// the leaves.
	index func(value.V) (int, bool)
}

// Index returns the index of carrier value v, false when v is not in
// the carrier.
func (c *Compiled) Index(v value.V) (int, bool) { return c.index(v) }

// maxCarrier is the largest carrier New compiles: indices must fit the
// uint16 cells.
const maxCarrier = 1 << 15

// New compiles a finite order transform. It fails on infinite carriers
// or function sets, on carriers above 1<<15 elements, and on a function
// that maps a weight outside the carrier. It is Within with the ceiling
// at 1<<15.
//
// The tables are built bottom-up over the expression that built t
// (ost.OrderTransform.Construction), the way core infers properties:
// only the leaves — base algebras, additive composites, Cayley
// transforms, anything built by ost.New — are evaluated cell by cell,
// F·N function applications and N² order tests each, and every operator
// above them composes its operands' tables with integer arithmetic:
//
//   - lex(S, T): weight (a, b) is a·|T| + b, value.Product's A-major
//     order; row (f, g), in fn.Product's order, maps (a, b) to
//     f(a)·|T| + g(b); (a, b) ≲ (a', b') iff a < a' or a ~ a' and
//     b ≲ b', as order.Lex decides it, so with both ranks known the
//     elements strictly below (a, b) number r_S(a)·|T| + |[a]|·r_T(b),
//     [a] being a's class under ~.
//   - left(S): S's order; row c is the constant c.
//   - right(S): S's order; one identity row.
//   - S + T: S's order; S's rows, then T's.
//   - addtop(S): S's order with ⊤ above everything, at the end of the
//     carrier unless S holds it already; S's rows, each fixing ⊤.
//
// A leaf's order is checked for a rank against every cell of its ≲
// matrix (rankOf) before the matrix is dropped; above the leaves a rank
// composes from its operands' ranks by the rules, and a matrix is built
// only where an operand has none — a partial order such as tags, or a
// relation that is not a preorder — and then checked for a rank in turn.
// The carrier's index composes the same way: a value map at each leaf,
// and a pair or ⊤ resolved through its operands' maps above them; Elems
// is the carrier's own list.
//
// A subexpression shared by several operators, as S and T are in
// S ⊙ T, is built once per call, and only its order or only its rows
// when its parent reads no more (left and right read no rows); nothing
// built for an operand outlives the call. The value-level cost is
// therefore Σ over distinct leaves of F·N + N², not the root's, and over
// ranked operands the root pays only integer work linear in its tables:
// F·N function cells and N ranks. Where a rule cannot index its
// operands' tables — a carrier that repeats an element, a union whose
// operands' carriers differ, an operand that does not compile on its
// own — New evaluates t itself cell by cell, as it does a leaf; the
// tables, or the error, are always the ones that evaluation gives.
func New(t *ost.OrderTransform) (*Compiled, error) { return Within(t, maxCarrier) }

// Within is New under a ceiling on what the compile builds: it fails,
// having built nothing larger, where it would need an order matrix over
// more than limit elements — at a leaf, below an operand without a rank,
// or to evaluate the whole of t — or a function table of more than
// limit² cells. A ranked composite therefore compiles whatever its
// carrier (up to 1<<15) as long as its leaves fit the ceiling.
func Within(t *ost.OrderTransform, limit int) (*Compiled, error) {
	if !t.Finite() {
		return nil, fmt.Errorf("compile: %s is not finitely enumerable", t.Name)
	}
	n := t.Carrier().Size()
	if n > maxCarrier {
		return nil, fmt.Errorf("compile: carrier of %s too large (%d elements)", t.Name, n)
	}
	b := builder{
		limit: min(limit, maxCarrier),
		ords:  map[*ost.OrderTransform]ordered{},
		fns:   map[*ost.OrderTransform][]uint16{},
		idx:   map[*ost.OrderTransform]func(value.V) (int, bool){},
	}
	c, err := newCompiled(t), errNoRule
	if rule, _ := t.Construction(); rule != ost.Leaf {
		if err = c.compose(&b, t); err == nil {
			return c, nil
		}
	}
	if errors.Is(err, errTooLarge) || n > b.limit || len(t.F.Fns)*n > b.limit*b.limit {
		return nil, fmt.Errorf("compile: %s needs a table past the %d-element ceiling", t.Name, b.limit)
	}
	if err := c.enumerate(t); err != nil {
		return nil, err
	}
	return c, nil
}

// newCompiled returns t's carrier, with no tables and no index yet.
func newCompiled(t *ost.OrderTransform) *Compiled {
	return &Compiled{N: t.Carrier().Size(), Elems: t.Carrier().Elems, NumFns: len(t.F.Fns)}
}

// compose fills c's tables by t's rule from its operands' tables.
func (c *Compiled) compose(b *builder, t *ost.OrderTransform) error {
	fns, err := b.rows(t)
	if err != nil {
		return err
	}
	o, err := b.order(t)
	if err != nil {
		return err
	}
	index, err := b.index(t)
	if err != nil {
		return err
	}
	c.Fn, c.index = fns, index
	c.setOrder(o)
	return nil
}

// enumerate fills c's tables from t's values cell by cell, the code
// New runs on every leaf: New's way with a leaf root, and with an
// expression its rules cannot compose.
func (c *Compiled) enumerate(t *ost.OrderTransform) error {
	c.index, _ = mapIndex(c.Elems)
	fns, err := enumRows(t, c.Elems, c.index)
	if err != nil {
		return err
	}
	c.Fn = fns
	c.setOrder(fromMatrix(c.N, enumOrder(t, c.Elems)))
	return nil
}

// setOrder keeps o's rank when it has one, else its ≲ matrix and the <
// matrix derived from it.
func (c *Compiled) setOrder(o ordered) {
	n := c.N
	if c.Rank = o.rank; c.Rank == nil {
		leq := o.leq
		c.LeqBits, c.LtBits = leq, make([]uint8, n*n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				c.LtBits[a*n+b] = leq[a*n+b] &^ leq[b*n+a]
			}
		}
	}
}

// mapIndex indexes elems by value: the lookup of a leaf, and of a
// transform no rule composes. A repeated element maps to its last index;
// distinct reports that none repeats.
func mapIndex(elems []value.V) (index func(value.V) (int, bool), distinct bool) {
	m := make(map[value.V]int, len(elems))
	for i, e := range elems {
		m[e] = i
	}
	return func(v value.V) (int, bool) {
		i, ok := m[v]
		return i, ok
	}, len(m) == len(elems)
}

// enumRows applies every function of t to every element of elems and
// indexes the result: the F·N value-level cells of a leaf.
func enumRows(t *ost.OrderTransform, elems []value.V, index func(value.V) (int, bool)) ([]uint16, error) {
	n := len(elems)
	fns := make([]uint16, len(t.F.Fns)*n)
	for fi, f := range t.F.Fns {
		tab := fns[fi*n : (fi+1)*n]
		for wi, e := range elems {
			out := f.Apply(e)
			oi, ok := index(out)
			if !ok {
				return nil, fmt.Errorf("compile: function %s of %s maps %s outside the carrier",
					f.Name, t.Name, value.Format(out))
			}
			tab[wi] = uint16(oi)
		}
	}
	return fns, nil
}

// enumOrder evaluates t's order on every pair of elems: the N²
// value-level cells of a leaf.
func enumOrder(t *ost.OrderTransform, elems []value.V) []uint8 {
	n := len(elems)
	leq := make([]uint8, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if t.Ord.Leq(elems[a], elems[b]) {
				leq[a*n+b] = 1
			}
		}
	}
	return leq
}

// errNoRule stops a composition whose operands the rules cannot index;
// New then enumerates the whole transform. errTooLarge stops one that
// would build a table past the ceiling; Within then fails.
var (
	errNoRule   = errors.New("compile: no composition rule applies")
	errTooLarge = errors.New("compile: table past the ceiling")
)

// ordered is a subexpression's order: its rank when the order is a total
// preorder, else its ≲ matrix.
type ordered struct {
	rank []uint16
	leq  []uint8
}

// fromMatrix is the order whose ≲ matrix is leq: its rank when rankOf
// derives one, else the matrix itself.
func fromMatrix(n int, leq []uint8) ordered {
	if rank := rankOf(n, leq); rank != nil {
		return ordered{rank: rank}
	}
	return ordered{leq: leq}
}

// builder holds one New call's subexpression tables, keyed by the
// transform they belong to, so a shared operand is built once: the order
// and index of each, and the function rows of those whose rows are read.
// No order matrix it builds has more than limit elements a side, and no
// function table more than limit² cells.
type builder struct {
	limit int
	ords  map[*ost.OrderTransform]ordered
	fns   map[*ost.OrderTransform][]uint16
	idx   map[*ost.OrderTransform]func(value.V) (int, bool)
}

// size is t's carrier size, or errNoRule when t's carrier is infinite
// or too large for the tables — possible below a finite root only next
// to an empty carrier.
func size(t *ost.OrderTransform) (int, error) {
	n := t.Carrier().Size()
	if n < 0 || n > maxCarrier {
		return 0, errNoRule
	}
	return n, nil
}

// order returns t's order, composed by t's rule or evaluated at a leaf.
func (b *builder) order(t *ost.OrderTransform) (ordered, error) {
	if o, ok := b.ords[t]; ok {
		return o, nil
	}
	n, err := size(t)
	if err != nil {
		return ordered{}, err
	}
	var o ordered
	rule, ops := t.Construction()
	switch rule {
	case ost.RuleLex:
		ordS, err := b.order(ops[0])
		if err != nil {
			return ordered{}, err
		}
		ordT, err := b.order(ops[1])
		if err != nil {
			return ordered{}, err
		}
		nS, nT := ops[0].Carrier().Size(), ops[1].Carrier().Size()
		if nS*nT != n {
			return ordered{}, errNoRule
		}
		if ordS.rank != nil && ordT.rank != nil {
			o.rank = lexRank(ordS.rank, ordT.rank, nT)
			break
		}
		ls, err := b.matrix(ordS, nS)
		if err != nil {
			return ordered{}, err
		}
		lt, err := b.matrix(ordT, nT)
		if err != nil {
			return ordered{}, err
		}
		if n > b.limit {
			return ordered{}, errTooLarge
		}
		o = fromMatrix(n, lexOrder(ls, nS, lt, nT))
	case ost.RuleLeft, ost.RuleRight, ost.RuleUnion:
		if ops[0].Carrier().Size() != n {
			return ordered{}, errNoRule
		}
		if o, err = b.order(ops[0]); err != nil {
			return ordered{}, err
		}
	case ost.RuleAddTop:
		ordS, err := b.order(ops[0])
		if err != nil {
			return ordered{}, err
		}
		top, err := topIndex(t, ops[0])
		if err != nil {
			return ordered{}, err
		}
		nS := ops[0].Carrier().Size()
		if ordS.rank != nil {
			o.rank = addTopRank(ordS.rank, n, top)
			break
		}
		ls, err := b.matrix(ordS, nS)
		if err != nil {
			return ordered{}, err
		}
		if n > b.limit {
			return ordered{}, errTooLarge
		}
		o = fromMatrix(n, addTopOrder(ls, nS, n, top))
	default:
		if n > b.limit {
			return ordered{}, errTooLarge
		}
		o = fromMatrix(n, enumOrder(t, t.Carrier().Elems))
	}
	b.ords[t] = o
	return o, nil
}

// matrix returns o's ≲ matrix over n elements, spelled out from its
// rank when o has one — for a parent that has no rank to compose.
func (b *builder) matrix(o ordered, n int) ([]uint8, error) {
	if o.rank == nil {
		return o.leq, nil
	}
	if n > b.limit {
		return nil, errTooLarge
	}
	leq := make([]uint8, n*n)
	for a, ra := range o.rank {
		for c, rc := range o.rank {
			if ra <= rc {
				leq[a*n+c] = 1
			}
		}
	}
	return leq, nil
}

// rows returns t's function rows, F rows of N cells, composed by t's
// rule or evaluated at a leaf.
func (b *builder) rows(t *ost.OrderTransform) ([]uint16, error) {
	if fns, ok := b.fns[t]; ok {
		return fns, nil
	}
	n, err := size(t)
	if err != nil || !t.F.Finite() {
		return nil, errNoRule
	}
	if len(t.F.Fns)*n > b.limit*b.limit {
		return nil, errTooLarge
	}
	var fns []uint16
	rule, ops := t.Construction()
	switch rule {
	case ost.RuleLex:
		s, u := ops[0], ops[1]
		fs, err := b.rows(s)
		if err != nil {
			return nil, err
		}
		ft, err := b.rows(u)
		if err != nil {
			return nil, err
		}
		nS, nT := s.Carrier().Size(), u.Carrier().Size()
		if nS*nT != n {
			return nil, errNoRule
		}
		fns = lexRows(fs, len(s.F.Fns), nS, ft, len(u.F.Fns), nT)
	case ost.RuleLeft:
		fns = make([]uint16, n*n)
		for c := 0; c < n; c++ {
			fill(fns[c*n:(c+1)*n], uint16(c))
		}
	case ost.RuleRight:
		fns = make([]uint16, n)
		for w := range fns {
			fns[w] = uint16(w)
		}
	case ost.RuleUnion:
		fs, err := b.rows(ops[0])
		if err != nil {
			return nil, err
		}
		ft, err := b.rows(ops[1])
		if err != nil {
			return nil, err
		}
		if !sameElems(ops[0].Carrier().Elems, ops[1].Carrier().Elems) {
			return nil, errNoRule
		}
		fns = append(append(make([]uint16, 0, len(fs)+len(ft)), fs...), ft...)
	case ost.RuleAddTop:
		s := ops[0]
		fs, err := b.rows(s)
		if err != nil {
			return nil, err
		}
		top, err := topIndex(t, s)
		if err != nil {
			return nil, err
		}
		fns = addTopRows(fs, len(s.F.Fns), s.Carrier().Size(), n, top)
	default:
		index, err := b.index(t)
		if err != nil {
			return nil, err
		}
		if fns, err = enumRows(t, t.Carrier().Elems, index); err != nil {
			return nil, err
		}
	}
	if len(fns) != len(t.F.Fns)*n {
		return nil, errNoRule
	}
	b.fns[t] = fns
	return fns, nil
}

// index returns the lookup from t's carrier values to their indices: a
// value map at a leaf, and above it the operands' lookups, by the
// carriers the rules lay out.
func (b *builder) index(t *ost.OrderTransform) (func(value.V) (int, bool), error) {
	if index, ok := b.idx[t]; ok {
		return index, nil
	}
	var index func(value.V) (int, bool)
	rule, ops := t.Construction()
	switch rule {
	case ost.RuleLex:
		is, err := b.index(ops[0])
		if err != nil {
			return nil, err
		}
		it, err := b.index(ops[1])
		if err != nil {
			return nil, err
		}
		nT := ops[1].Carrier().Size()
		index = func(v value.V) (int, bool) {
			p, ok := v.(value.Pair)
			if !ok {
				return 0, false
			}
			a, okA := is(p.A)
			c, okC := it(p.B)
			return a*nT + c, okA && okC
		}
	case ost.RuleLeft, ost.RuleRight, ost.RuleUnion:
		return b.index(ops[0])
	case ost.RuleAddTop:
		is, err := b.index(ops[0])
		if err != nil {
			return nil, err
		}
		top, err := topIndex(t, ops[0])
		if err != nil {
			return nil, err
		}
		index = is
		if top == ops[0].Carrier().Size() {
			index = func(v value.V) (int, bool) {
				if v == value.V(value.Top{}) {
					return top, true
				}
				return is(v)
			}
		}
	default:
		var distinct bool
		if index, distinct = mapIndex(t.Carrier().Elems); !distinct {
			return nil, errNoRule
		}
	}
	b.idx[t] = index
	return index, nil
}

// lexRank composes the rank of S ×lex T from S's and T's: the elements
// strictly below (a, b) are every pair whose first component is strictly
// below a, nT per element, and the pairs (a', b') with a' ~ a and b'
// strictly below b, |[a]| per element strictly below b.
func lexRank(rS, rT []uint16, nT int) []uint16 {
	class := make([]int, len(rS)) // class[r]: the elements of S at rank r
	for _, r := range rS {
		class[r]++
	}
	rank := make([]uint16, len(rS)*nT)
	for a, ra := range rS {
		base, k, row := int(ra)*nT, class[ra], rank[a*nT:(a+1)*nT]
		for b, rb := range rT {
			row[b] = uint16(base + k*int(rb))
		}
	}
	return rank
}

// addTopRank composes the rank of addtop(S), n elements with ⊤ at index
// top, from S's: ⊤ has every other element strictly below it. Appended
// (top == len(rS)), it leaves S's ranks as they were; already in S, it
// moves up from wherever S ranked it, so an element S ranked above ⊤
// counts one element fewer below it.
func addTopRank(rS []uint16, n, top int) []uint16 {
	rank := make([]uint16, n)
	copy(rank, rS)
	if top < len(rS) {
		for a, r := range rS {
			if r > rS[top] {
				rank[a] = r - 1
			}
		}
	}
	rank[top] = uint16(n - 1)
	return rank
}

// lexOrder composes the ≲ matrix of S ×lex T from S's (nS×nS) and T's
// (nT×nT): the block of pairs with first components (a, a') is all 1
// when a < a', T's matrix when a ~ a', and all 0 otherwise.
func lexOrder(ls []uint8, nS int, lt []uint8, nT int) []uint8 {
	n := nS * nT
	leq := make([]uint8, n*n)
	ones := make([]uint8, nT)
	fill(ones, 1)
	for a := 0; a < nS; a++ {
		for a2 := 0; a2 < nS; a2++ {
			if ls[a*nS+a2] == 0 {
				continue
			}
			equiv := ls[a2*nS+a] == 1
			for b := 0; b < nT; b++ {
				dst := leq[(a*nT+b)*n+a2*nT:][:nT]
				if equiv {
					copy(dst, lt[b*nT:(b+1)*nT])
				} else {
					copy(dst, ones)
				}
			}
		}
	}
	return leq
}

// lexRows composes the rows of S ×lex T: row f·|F_T| + g maps weight
// a·nT + b to fs[f][a]·nT + ft[g][b].
func lexRows(fs []uint16, numS, nS int, ft []uint16, numT, nT int) []uint16 {
	n := nS * nT
	fns := make([]uint16, numS*numT*n)
	for f := 0; f < numS; f++ {
		rowS := fs[f*nS : (f+1)*nS]
		for g := 0; g < numT; g++ {
			rowT := ft[g*nT : (g+1)*nT]
			dst := fns[(f*numT+g)*n:][:n]
			for a, fa := range rowS {
				base, cells := fa*uint16(nT), dst[a*nT:(a+1)*nT]
				for b, gb := range rowT {
					cells[b] = base + gb
				}
			}
		}
	}
	return fns
}

// topIndex is where addtop(S) keeps ⊤: after S's carrier, or where S's
// carrier already holds it.
func topIndex(t, s *ost.OrderTransform) (int, error) {
	n, nS := t.Carrier().Size(), s.Carrier().Size()
	if n == nS+1 {
		return nS, nil
	}
	for i, e := range t.Carrier().Elems {
		if e == value.V(value.Top{}) {
			return i, nil
		}
	}
	return 0, errNoRule
}

// addTopOrder is S's ≲ matrix (nS×nS) widened to n×n with ⊤ at index
// top: everything is ≲ ⊤, and ⊤ is ≲ only itself.
func addTopOrder(ls []uint8, nS, n, top int) []uint8 {
	leq := make([]uint8, n*n)
	for a := 0; a < nS; a++ {
		copy(leq[a*n:a*n+nS], ls[a*nS:(a+1)*nS])
	}
	for a := 0; a < n; a++ {
		leq[a*n+top] = 1
		if a != top {
			leq[top*n+a] = 0
		}
	}
	return leq
}

// addTopRows widens each of S's numS rows (nS cells) to n cells, every
// one mapping ⊤ at index top to itself.
func addTopRows(fs []uint16, numS, nS, n, top int) []uint16 {
	fns := make([]uint16, numS*n)
	for f := 0; f < numS; f++ {
		row := fns[f*n : (f+1)*n]
		copy(row, fs[f*nS:(f+1)*nS])
		row[top] = uint16(top)
	}
	return fns
}

// sameElems reports whether two carriers list the same elements in the
// same order, so that one's indices are the other's.
func sameElems(a, b []value.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fill[T uint8 | uint16](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// rankOf returns the rank vector of a total preorder given as its ≲
// matrix, or nil when the relation is not one. An element's rank is the
// number of elements strictly below it: on a total preorder equivalent
// elements share a rank and a strictly smaller element has a strictly
// smaller one, and since every other element is either at or above a
// or strictly below it, a's rank is N minus the 1s in a's row. The
// converse is not assumed but checked — the ranks are accepted only if
// rank comparison reproduces ≲ on every cell, and then it reproduces <
// too (a < b iff a ≲ b and not b ≲ a); since integer comparison is
// itself total, reflexive and transitive, a relation that is none of
// those cannot pass. Both passes read the matrix row by row.
func rankOf(n int, leq []uint8) []uint16 {
	rank := make([]uint16, n)
	for a := range rank {
		above := 0
		for _, le := range leq[a*n : (a+1)*n] {
			above += int(le)
		}
		rank[a] = uint16(n - above)
	}
	for a, ra := range rank {
		for b, le := range leq[a*n : (a+1)*n] {
			if (le == 1) != (ra <= rank[b]) {
				return nil
			}
		}
	}
	return rank
}

// Leq reports a ≲ b on compiled indices.
func (c *Compiled) Leq(a, b int32) bool {
	if r := c.Rank; r != nil {
		return r[a] <= r[b]
	}
	return c.LeqBits[int(a)*c.N+int(b)] == 1
}

// Lt reports a < b on compiled indices.
func (c *Compiled) Lt(a, b int32) bool {
	if r := c.Rank; r != nil {
		return r[a] < r[b]
	}
	return c.LtBits[int(a)*c.N+int(b)] == 1
}

// Equiv reports a ~ b on compiled indices.
func (c *Compiled) Equiv(a, b int32) bool {
	if r := c.Rank; r != nil {
		return r[a] == r[b]
	}
	return c.LeqBits[int(a)*c.N+int(b)] == 1 && c.LeqBits[int(b)*c.N+int(a)] == 1
}

// Apply applies function f to weight index w.
func (c *Compiled) Apply(f int, w int32) int32 { return int32(c.Fn[f*c.N+int(w)]) }
