// Package ost implements order transforms (S, ≲, F) — the lower-right
// quadrant of the quadrants model and the structure underlying Sobrinho's
// routing algebras and the original metarouting language.
//
// An order transform pairs a preordered weight set with a set of unary
// functions; arcs of a network are labelled with functions and the weight
// of a path is the composition of its arc functions applied to an
// originated value (§II). The package provides the metarouting operators
// over order transforms — lexicographic product ×lex, left(·), right(·),
// disjoint function union +, the BGP-like scoped product ⊙ and the
// OSPF-like partition Δ — and exhaustive/sampled checking of the M, N, C,
// ND, I and T properties of Figures 2 and 3.
package ost

import (
	"fmt"
	"math/rand"
	"sync"

	"metarouting/internal/fn"
	"metarouting/internal/order"
	"metarouting/internal/prop"
	"metarouting/internal/value"
)

// OrderTransform is a structure (S, ≲, F).
type OrderTransform struct {
	// Name is a diagnostic label.
	Name string
	// Ord is the preordered weight set (S, ≲).
	Ord *order.Preorder
	// F is the set of arc functions S → S.
	F *fn.Set
	// Props caches property judgements (keys from prop.RoutingIDs): the
	// ones the constructor declares and Check computes and, once
	// core.InferWith has built the transform, exactly the inferred set of
	// its algebra node — order facts such as Full included. Engines
	// expose it through Source(); solve.NewPlan reads it from there.
	Props prop.Set

	// rule and operands record the operator that built the transform
	// and what it was applied to; see Construction.
	rule     Rule
	operands []*OrderTransform

	// memo is the slot behind Memo.
	memoOnce sync.Once
	memo     any
}

// Rule names the operator that built an order transform from other
// order transforms, for consumers that compose per-operand results
// instead of evaluating the whole transform (internal/compile builds
// its tables this way). Only operators whose carrier, order and
// function set follow from their operands' by a fixed rule are
// recorded; Scoped and Delta are built from them and so carry them.
type Rule uint8

const (
	// Leaf marks a transform built by New: a base algebra, an additive
	// composite, a Cayley transform or anything a caller assembled.
	Leaf Rule = iota
	// RuleLex is Lex(S, T): pair carrier in A-major order, the
	// lexicographic order, functions (f, g) in fn.Product's order.
	RuleLex
	// RuleLeft is Left(S): S's order, one constant per carrier element.
	RuleLeft
	// RuleRight is Right(S): S's order and the identity.
	RuleRight
	// RuleUnion is Union(S, T): S's order, S's functions then T's.
	RuleUnion
	// RuleAddTop is AddTop(S): S's order with ⊤ adjoined (appended
	// unless S's carrier holds it already) and every function lifted to
	// fix ⊤.
	RuleAddTop
)

// Construction returns the rule that built t and its operands, in the
// operator's argument order; Leaf and no operands for a transform built
// by New.
func (t *OrderTransform) Construction() (Rule, []*OrderTransform) {
	return t.rule, t.operands
}

// built stamps t with the rule and operands that built it.
func (t *OrderTransform) built(r Rule, operands ...*OrderTransform) *OrderTransform {
	t.rule, t.operands = r, operands
	return t
}

// New builds an order transform.
func New(name string, ord *order.Preorder, f *fn.Set) *OrderTransform {
	return &OrderTransform{Name: name, Ord: ord, F: f, Props: prop.Make()}
}

// Memo returns the value the transform's one memo slot holds, building
// it on first use; concurrent first callers wait for the one build. The
// slot belongs to internal/exec, which keeps the compiled engine there:
// a table set lives exactly as long as the transform it was compiled
// from and is collected with it, which no map keyed by transform pointer
// can promise.
func (t *OrderTransform) Memo(build func() any) any {
	t.memoOnce.Do(func() { t.memo = build() })
	return t.memo
}

// Carrier returns the weight carrier.
func (t *OrderTransform) Carrier() *value.Carrier { return t.Ord.Car }

// Finite reports whether both the carrier and the function set are
// enumerable, i.e. whether exhaustive property checking is possible.
func (t *OrderTransform) Finite() bool { return t.Ord.Car.Finite() && t.F.Finite() }

// DefaultOrigin picks a sensible originated weight for experiments and
// servers: ⊥ of the order when known (the most preferred weight), else
// the first carrier element, else 0. Shared by the CLIs and the route
// server so "the default origin" means the same thing everywhere.
func (t *OrderTransform) DefaultOrigin() value.V {
	if b, ok := t.Ord.Bot(); ok {
		return b
	}
	if t.Carrier().Finite() {
		return t.Carrier().Elems[0]
	}
	return 0
}

// CheckedDefaultOrigin is DefaultOrigin for callers whose algebra comes
// from outside the program (an -expr flag, a validation case): the
// fallback for an infinite carrier with no ⊥ is a guess, and a guess
// that does not fit — 0 offered to a carrier of pairs — must be an
// error here rather than a panic inside a solver.
func (t *OrderTransform) CheckedDefaultOrigin() (value.V, error) {
	o := t.DefaultOrigin()
	if err := t.CheckWeight(o); err != nil {
		return nil, fmt.Errorf("%s has no default origin: %v", t.Name, err)
	}
	return o, nil
}

// CheckWeight reports whether v — an origin literal from a scenario
// file, a Config or an announcement set — can be used as a weight of t:
// membership for finite carriers, and a recover-guarded probe of the
// order and every arc function otherwise (a pair fed to a scalar
// algebra would panic deep inside route computation). The interning
// execution backends accept any value, so this is the check that stands
// between outside input and a solver worker.
func (t *OrderTransform) CheckWeight(v value.V) (err error) {
	car := t.Carrier()
	if car.Finite() && !car.Contains(v) {
		return fmt.Errorf("%s is not in the carrier %s", value.Format(v), car.Name)
	}
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("%s does not fit the carrier %s", value.Format(v), car.Name)
		}
	}()
	t.Ord.Leq(v, v)
	for _, f := range t.F.Fns {
		f.Apply(v)
	}
	return nil
}

// Left returns left(S) = (S, ≲, {κ_b | b ∈ S}) (§II): every arc function
// is a constant, so the last link completely determines the value — the
// shape of BGP's local-preference attribute.
func Left(s *OrderTransform) *OrderTransform {
	return New("left("+s.Name+")", s.Ord, fn.Constants(s.Ord.Car)).built(RuleLeft, s)
}

// Right returns right(S) = (S, ≲, {id}) (§II): once a value is originated
// it can only be copied — the shape of BGP's origin attribute.
func Right(s *OrderTransform) *OrderTransform {
	return New("right("+s.Name+")", s.Ord, fn.IdentityOnly()).built(RuleRight, s)
}

// Lex returns the lexicographic product S ×lex T (§II): the lexicographic
// order on pairs, with functions {(f,g)} acting componentwise.
func Lex(s, t *OrderTransform) *OrderTransform {
	return LexOrdered(order.Lex(s.Ord, t.Ord), s, t)
}

// LexOrdered is Lex with its order built by the caller: ord must be
// order.Lex(s.Ord, t.Ord), or that call's result for two orders that are
// s's and t's. The order and its pair carrier follow from the two
// operand orders alone, so the two summands of Scoped and Delta — whose
// operands carry the same two orders — share one.
func LexOrdered(ord *order.Preorder, s, t *OrderTransform) *OrderTransform {
	return New("("+s.Name+" ×lex "+t.Name+")", ord, fn.Product(s.F, t.F)).built(RuleLex, s, t)
}

// Union returns the disjoint function union S + T (§II). Both operands
// must share their carrier and order; the function sets are combined with
// distinguishing tags whose application ignores the tag.
func Union(s, t *OrderTransform) *OrderTransform {
	u := New("("+s.Name+" + "+t.Name+")", s.Ord, fn.DisjointUnion(s.F, t.F))
	return u.built(RuleUnion, s, t)
}

// Scoped returns the BGP-like scoped product (§II):
//
//	S ⊙ T := (S ×lex left(T)) + (right(S) ×lex T).
//
// Weights are pairs compared lexicographically. Inter-region arcs carry
// functions (1, (f, κ_c)) that transform the first component and
// *originate* a fresh second component; intra-region arcs carry
// (2, (id, g)) that copy the inter-region information and transform the
// second component.
func Scoped(s, t *OrderTransform) *OrderTransform {
	inter := Lex(s, Left(t))
	intra := LexOrdered(inter.Ord, Right(s), t)
	u := Union(inter, intra)
	u.Name = "(" + s.Name + " ⊙ " + t.Name + ")"
	return u
}

// Delta returns the OSPF-area-like partition (§II):
//
//	S Δ T := (S ×lex T) + (right(S) ×lex T).
//
// Unlike the scoped product, inter-region arcs transform both components,
// so Δ behaves like an ordinary lexicographic product in addition to its
// internal-only mode — which is why Theorem 7 demands more of its
// operands than Theorem 6 does of ⊙'s.
func Delta(s, t *OrderTransform) *OrderTransform {
	inter := Lex(s, t)
	intra := LexOrdered(inter.Ord, Right(s), t)
	u := Union(inter, intra)
	u.Name = "(" + s.Name + " Δ " + t.Name + ")"
	return u
}

// AddTop adjoins a fresh ⊤ ("unreachable") element: x ≲ ⊤ for every x and
// every function maps ⊤ to ⊤. AddTop makes the T property of §II hold by
// construction and gives the I property its exempted element.
func AddTop(s *OrderTransform) *OrderTransform {
	top := value.V(value.Top{})
	car := value.Adjoin(s.Ord.Car, top, s.Ord.Car.Name+"∪{⊤}")
	ord := order.New(s.Ord.Name+"∪{⊤}", car, func(a, b value.V) bool {
		if b == top {
			return true
		}
		if a == top {
			return false
		}
		return s.Ord.Leq(a, b)
	})
	ord.WithTop(top)
	if b, ok := s.Ord.Bot(); ok {
		ord.WithBot(b)
	}
	lift := func(f fn.Fn) fn.Fn {
		return fn.Fn{Name: f.Name, Apply: func(v value.V) value.V {
			if v == top {
				return top
			}
			return f.Apply(v)
		}}
	}
	var fs *fn.Set
	if s.F.Finite() {
		lifted := make([]fn.Fn, len(s.F.Fns))
		for i, f := range s.F.Fns {
			lifted[i] = lift(f)
		}
		fs = fn.NewFinite(s.F.Name, lifted)
	} else {
		fs = fn.NewSampled(s.F.Name, func(r *rand.Rand) fn.Fn { return lift(s.F.Draw(r)) })
	}
	out := New("addtop("+s.Name+")", ord, fs).built(RuleAddTop, s)
	out.Props.Declare(prop.TopFixed)
	return out
}

// AdditiveComposite combines two order transforms over int carriers into
// a single scalarized metric (§VI's discussion of EIGRP-style "additive
// composite metrics", after Gouda & Schneider): the carrier is the pair
// carrier, functions act componentwise, but the order compares the
// weighted sum ws·s + wt·t — a fixed formula instead of a lexicographic
// hierarchy. Both operands must have finite int carriers.
//
// Gouda & Schneider proved ND(S) ∧ ND(T) ⇒ ND(S ⊞ T); the condition is
// sufficient but not necessary (one component may decrease if the other
// gains more), which experiment E14 quantifies — the paper's §VI asks
// for exact criteria here and records them as open.
func AdditiveComposite(s, t *OrderTransform, ws, wt int) *OrderTransform {
	for _, o := range []*OrderTransform{s, t} {
		if !o.Ord.Car.Finite() {
			panic("ost: AdditiveComposite requires finite carriers")
		}
		for _, e := range o.Ord.Car.Elems {
			if _, ok := e.(int); !ok {
				panic("ost: AdditiveComposite requires int carriers")
			}
		}
	}
	scal := func(v value.V) int {
		p := v.(value.Pair)
		return ws*p.A.(int) + wt*p.B.(int)
	}
	ord := order.New(
		fmt.Sprintf("%d·%s+%d·%s", ws, s.Ord.Name, wt, t.Ord.Name),
		value.Product(s.Ord.Car, t.Ord.Car),
		func(a, b value.V) bool { return scal(a) <= scal(b) })
	return New("("+s.Name+" ⊞ "+t.Name+")", ord, fn.Product(s.F, t.F))
}

// FromSemigroupOrder is the Cayley construction (§III): an order semigroup
// (S, ≲, ⊗) becomes the order transform (S, ≲, {λy. x⊗y | x ∈ S}).
func FromSemigroupOrder(name string, ord *order.Preorder, op func(a, b value.V) value.V) *OrderTransform {
	return New(name, ord, fn.Cayley("F_"+name, ord.Car, op))
}

// PathWeight applies the arc functions fs (source-side first, matching
// §II's v(p) = (f₁ ∘ f₂ ∘ … ∘ f_k)(a)) to the originated value a.
func (t *OrderTransform) PathWeight(fs []fn.Fn, a value.V) value.V {
	v := a
	for i := len(fs) - 1; i >= 0; i-- {
		v = fs[i].Apply(v)
	}
	return v
}
