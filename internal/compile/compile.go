// Package compile specializes finite order transforms (and bisemigroups)
// into dense integer tables for the routing hot path: carrier elements
// become indices, functions become one flat lookup table, and the
// preorder becomes a rank vector (order matrices when it is not total).
// The compiled form removes all interface dispatch and map traffic from
// the inner loops of route computation.
//
// This package only builds tables; execution lives behind the unified
// internal/exec.Algebra interface, which every solver and the protocol
// simulator consume — the engine-differential tests and the
// BenchmarkEngineDynamicVsCompiled* suite measure the tables against the
// dynamic representation.
package compile

import (
	"fmt"

	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// Compiled is a finite order transform in dense-table form: one flat
// function table and, when the preorder is total, one rank vector — an
// Apply is one load, a comparison two loads and an integer compare, and
// the whole form is 2·F·N + 2·N bytes. An order with incomparable
// elements (or one that is not a preorder at all) keeps the N×N
// matrices instead of a rank.
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
	// Monotone and StrictlyIncreasing are the licences New verified cell
	// by cell on the tables: both require an injective rank (the order is
	// antisymmetric and total, so a rank names exactly one weight).
	// Monotone: every Fn row is non-decreasing in rank order (M).
	// StrictlyIncreasing: every row maps each weight below the rank-top to
	// a strictly higher rank and fixes the top (strict I). Either one lets
	// a from-scratch column build run the best-first kernel instead of the
	// synchronous sweep (solve.Workspace.ScratchRaw).
	Monotone, StrictlyIncreasing bool
}

// New compiles a finite order transform. It fails on infinite carriers
// or function sets, and on carriers above 1<<15 elements (the order is
// evaluated on every pair).
func New(t *ost.OrderTransform) (*Compiled, error) {
	if !t.Finite() {
		return nil, fmt.Errorf("compile: %s is not finitely enumerable", t.Name)
	}
	n := t.Carrier().Size()
	if n > 1<<15 {
		return nil, fmt.Errorf("compile: carrier of %s too large (%d elements)", t.Name, n)
	}
	c := &Compiled{
		N:      n,
		Elems:  append([]value.V(nil), t.Carrier().Elems...),
		Index:  make(map[value.V]int, n),
		NumFns: len(t.F.Fns),
	}
	for i, e := range c.Elems {
		c.Index[e] = i
	}
	c.Fn = make([]uint16, c.NumFns*n)
	for fi, f := range t.F.Fns {
		tab := c.Fn[fi*n : (fi+1)*n]
		for wi, e := range c.Elems {
			out := f.Apply(e)
			oi, ok := c.Index[out]
			if !ok {
				return nil, fmt.Errorf("compile: function %s of %s maps %s outside the carrier",
					f.Name, t.Name, value.Format(out))
			}
			tab[wi] = uint16(oi)
		}
	}
	leq := make([]uint8, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if t.Ord.Leq(c.Elems[a], c.Elems[b]) {
				leq[a*n+b] = 1
			}
		}
	}
	if c.Rank = rankOf(n, leq); c.Rank == nil {
		c.LeqBits, c.LtBits = leq, make([]uint8, n*n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				c.LtBits[a*n+b] = leq[a*n+b] &^ leq[b*n+a]
			}
		}
	} else {
		c.Monotone, c.StrictlyIncreasing = licences(n, c.NumFns, c.Fn, c.Rank)
	}
	return c, nil
}

// licences checks M and strict I on a ranked table (see Compiled). An
// injective rank is a permutation of 0..n-1, so walking it in rank order
// visits each weight once, lowest first: a row is monotone iff the ranks
// it maps that walk to never fall, and strictly increasing iff it raises
// every weight but the last one visited, the top, which it must fix. A
// rank shared by two weights licenses neither.
func licences(n, numFns int, fn, rank []uint16) (monotone, strictInc bool) {
	if n == 0 {
		return false, false
	}
	byRank := make([]int32, n)
	for i := range byRank {
		byRank[i] = -1
	}
	for a, r := range rank {
		if byRank[r] >= 0 {
			return false, false
		}
		byRank[r] = int32(a)
	}
	top := int(byRank[n-1])
	monotone, strictInc = true, true
	for f := 0; f < numFns; f++ {
		row := fn[f*n : (f+1)*n]
		prev := uint16(0)
		for _, a := range byRank {
			r := rank[row[a]]
			if r < prev {
				monotone = false
			}
			prev = r
			if int(a) == top {
				strictInc = strictInc && int(row[a]) == top
			} else if r <= rank[a] {
				strictInc = false
			}
		}
	}
	return monotone, strictInc
}

// rankOf returns the rank vector of a total preorder given as its ≲
// matrix, or nil when the relation is not one. An element's rank is the
// number of elements strictly below it: on a total preorder equivalent
// elements share a rank and a strictly smaller element has a strictly
// smaller one. The converse is not assumed but checked — rank
// comparisons are accepted only if they reproduce ≲ and < cell by cell,
// and since integer comparison is itself total, reflexive and
// transitive, a relation that is none of those cannot pass.
func rankOf(n int, leq []uint8) []uint16 {
	rank := make([]uint16, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			rank[b] += uint16(leq[a*n+b] &^ leq[b*n+a])
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			le := leq[a*n+b] == 1
			lt := le && leq[b*n+a] == 0
			if le != (rank[a] <= rank[b]) || lt != (rank[a] < rank[b]) {
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
