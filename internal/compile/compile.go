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
	// Elems maps index → original value.
	Elems []value.V
	// Index maps original value → index.
	Index map[value.V]int
	// NumFns is the function count F.
	NumFns int
	// Fn[f*N+w] applies function f to weight w. Indices fit uint16
	// because New refuses carriers above 1<<15.
	Fn []uint16
	// Rank, when non-nil, decides the whole preorder: a ≲ b iff
	// Rank[a] ≤ Rank[b], a < b iff Rank[a] < Rank[b], a ~ b iff
	// Rank[a] == Rank[b]. New checked it against every cell of the
	// order matrices before dropping them.
	Rank []uint16
	// LeqBits[a*N+b] is 1 iff a ≲ b; LtBits likewise for a < b. Both
	// are nil when Rank is set.
	LeqBits, LtBits []uint8
}

// maxCarrier is the largest carrier New compiles: indices must fit the
// uint16 cells, and the ≲ matrix it builds has maxCarrier² bytes.
const maxCarrier = 1 << 15

// New compiles a finite order transform. It fails on infinite carriers
// or function sets, on carriers above 1<<15 elements (New builds the
// n×n ≲ matrix before it can drop it for a rank), and on a function
// that maps a weight outside the carrier.
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
//     b ≲ b', as order.Lex decides it.
//   - left(S): S's order; row c is the constant c.
//   - right(S): S's order; one identity row.
//   - S + T: S's order; S's rows, then T's.
//   - addtop(S): S's order with ⊤ above everything, at the end of the
//     carrier unless S holds it already; S's rows, each fixing ⊤.
//
// A subexpression shared by several operators, as S and T are in
// S ⊙ T, is built once per call, and only its order or only its rows
// when its parent reads no more (left and right read no rows); nothing
// built for an operand outlives the call. The value-level cost is
// therefore Σ over distinct leaves of F·N + N², not the root's, and the
// root pays only integer work: F·N cells, and N² for the matrix and its
// rank, which rankOf still checks against every cell before dropping
// it. Where a rule cannot index its operands' tables — a carrier that
// repeats an element, a union whose operands' carriers differ, an
// operand that does not compile on its own — New evaluates t itself
// cell by cell, as it does a leaf; the tables, or the error, are always
// the ones that evaluation gives.
func New(t *ost.OrderTransform) (*Compiled, error) {
	if !t.Finite() {
		return nil, fmt.Errorf("compile: %s is not finitely enumerable", t.Name)
	}
	n := t.Carrier().Size()
	if n > maxCarrier {
		return nil, fmt.Errorf("compile: carrier of %s too large (%d elements)", t.Name, n)
	}
	c := newCompiled(t)
	if rule, _ := t.Construction(); rule != ost.Leaf && len(c.Index) == n && c.compose(t) == nil {
		return c, nil
	}
	if err := c.enumerate(t); err != nil {
		return nil, err
	}
	return c, nil
}

// newCompiled returns t's carrier and index, with no tables yet.
func newCompiled(t *ost.OrderTransform) *Compiled {
	c := &Compiled{
		N:      t.Carrier().Size(),
		Elems:  append([]value.V(nil), t.Carrier().Elems...),
		NumFns: len(t.F.Fns),
	}
	c.Index = make(map[value.V]int, c.N)
	for i, e := range c.Elems {
		c.Index[e] = i
	}
	return c
}

// compose fills c's tables by t's rule from its operands' tables.
func (c *Compiled) compose(t *ost.OrderTransform) error {
	b := builder{leq: map[*ost.OrderTransform][]uint8{}, fns: map[*ost.OrderTransform][]uint16{}}
	fns, err := b.rows(t)
	if err != nil {
		return err
	}
	leq, err := b.order(t)
	if err != nil {
		return err
	}
	c.Fn = fns
	c.setOrder(leq)
	return nil
}

// enumerate fills c's tables from t's values cell by cell, the code
// New runs on every leaf: New's way with a leaf root, and with an
// expression its rules cannot compose.
func (c *Compiled) enumerate(t *ost.OrderTransform) error {
	fns, err := enumRows(t, c.Elems, c.Index)
	if err != nil {
		return err
	}
	c.Fn = fns
	c.setOrder(enumOrder(t, c.Elems))
	return nil
}

// setOrder keeps the rank of the ≲ matrix leq when rankOf derives one,
// else leq and the < matrix.
func (c *Compiled) setOrder(leq []uint8) {
	n := c.N
	if c.Rank = rankOf(n, leq); c.Rank == nil {
		c.LeqBits, c.LtBits = leq, make([]uint8, n*n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				c.LtBits[a*n+b] = leq[a*n+b] &^ leq[b*n+a]
			}
		}
	}
}

// enumRows applies every function of t to every element of elems and
// indexes the result: the F·N value-level cells of a leaf.
func enumRows(t *ost.OrderTransform, elems []value.V, index map[value.V]int) ([]uint16, error) {
	n := len(elems)
	fns := make([]uint16, len(t.F.Fns)*n)
	for fi, f := range t.F.Fns {
		tab := fns[fi*n : (fi+1)*n]
		for wi, e := range elems {
			out := f.Apply(e)
			oi, ok := index[out]
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
// New then enumerates the whole transform.
var errNoRule = errors.New("compile: no composition rule applies")

// builder holds one New call's subexpression tables, keyed by the
// transform they belong to, so a shared operand is built once: the ≲
// matrix of each, and the function rows of those whose rows are read.
type builder struct {
	leq map[*ost.OrderTransform][]uint8
	fns map[*ost.OrderTransform][]uint16
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

// order returns t's ≲ matrix, composed by t's rule or evaluated at a
// leaf.
func (b *builder) order(t *ost.OrderTransform) ([]uint8, error) {
	if leq, ok := b.leq[t]; ok {
		return leq, nil
	}
	n, err := size(t)
	if err != nil {
		return nil, err
	}
	var leq []uint8
	rule, ops := t.Construction()
	switch rule {
	case ost.RuleLex:
		ls, err := b.order(ops[0])
		if err != nil {
			return nil, err
		}
		lt, err := b.order(ops[1])
		if err != nil {
			return nil, err
		}
		nS, nT := ops[0].Carrier().Size(), ops[1].Carrier().Size()
		if nS*nT != n {
			return nil, errNoRule
		}
		leq = lexOrder(ls, nS, lt, nT)
	case ost.RuleLeft, ost.RuleRight, ost.RuleUnion:
		if leq, err = b.order(ops[0]); err != nil {
			return nil, err
		}
	case ost.RuleAddTop:
		ls, err := b.order(ops[0])
		if err != nil {
			return nil, err
		}
		top, err := topIndex(t, ops[0])
		if err != nil {
			return nil, err
		}
		leq = addTopOrder(ls, ops[0].Carrier().Size(), n, top)
	default:
		leq = enumOrder(t, t.Carrier().Elems)
	}
	b.leq[t] = leq
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
		elems := t.Carrier().Elems
		index := make(map[value.V]int, n)
		for i, e := range elems {
			index[e] = i
		}
		if fns, err = enumRows(t, elems, index); err != nil {
			return nil, err
		}
	}
	if len(fns) != len(t.F.Fns)*n {
		return nil, errNoRule
	}
	b.fns[t] = fns
	return fns, nil
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
