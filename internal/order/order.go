// Package order implements preorders — the "ordered" approach to weight
// summarization in the quadrants model (§II–§III of the paper).
//
// A preorder is represented extensionally as a carrier plus a ≲ predicate.
// The derived relations <, ~ and # of §II are methods; the lexicographic
// product of §II is the Lex constructor. Property checking (reflexivity,
// transitivity, fullness, antisymmetry, top/bottom) is exhaustive on
// finite carriers and sampled on infinite ones.
package order

import (
	"fmt"
	"math/rand"

	"metarouting/internal/prop"
	"metarouting/internal/value"
)

// Preorder is a preordered set (S, ≲). Leq must be reflexive and
// transitive for the structure to be a genuine preorder; the library does
// not enforce this at construction time (the paper's design principle is
// to *infer* rather than require) but CheckAll will report violations.
type Preorder struct {
	// Name is a diagnostic label, e.g. "(ℕ,≤)".
	Name string
	// Car is the carrier.
	Car *value.Carrier
	// Leq is the ≲ relation.
	Leq func(a, b value.V) bool
	// Props caches property judgements about the order.
	Props prop.Set

	// top/bot, when set, declare distinguished elements for infinite
	// carriers (finite carriers have them computed on demand).
	top, bot       value.V
	hasTop, hasBot bool
}

// New builds a preorder from a carrier and a ≲ predicate.
func New(name string, car *value.Carrier, leq func(a, b value.V) bool) *Preorder {
	return &Preorder{Name: name, Car: car, Leq: leq, Props: prop.Make()}
}

// WithTop declares t as the ⊤ (least preferred) element and returns the
// preorder, for use with infinite carriers where ⊤ cannot be discovered by
// enumeration.
func (p *Preorder) WithTop(t value.V) *Preorder {
	p.top, p.hasTop = t, true
	p.Props.Declare(prop.HasTop)
	return p
}

// WithBot declares b as the ⊥ (most preferred) element.
func (p *Preorder) WithBot(b value.V) *Preorder {
	p.bot, p.hasBot = b, true
	p.Props.Declare(prop.HasBot)
	return p
}

// Lt is the strict relation: a < b ⟺ a ≲ b ∧ ¬(b ≲ a).
func (p *Preorder) Lt(a, b value.V) bool { return p.Leq(a, b) && !p.Leq(b, a) }

// Equiv is the equivalence relation: a ~ b ⟺ a ≲ b ∧ b ≲ a.
func (p *Preorder) Equiv(a, b value.V) bool { return p.Leq(a, b) && p.Leq(b, a) }

// Incomp is the incomparability relation: a # b ⟺ ¬(a ≲ b) ∧ ¬(b ≲ a).
func (p *Preorder) Incomp(a, b value.V) bool { return !p.Leq(a, b) && !p.Leq(b, a) }

// Top returns the declared or discovered ⊤ element: x ≲ ⊤ for every x.
// Discovery requires a finite carrier; the result is memoised.
func (p *Preorder) Top() (value.V, bool) {
	if p.hasTop {
		return p.top, true
	}
	if p.Props.Fails(prop.HasTop) || !p.Car.Finite() {
		return nil, false
	}
	for _, cand := range p.Car.Elems {
		ok := true
		for _, x := range p.Car.Elems {
			if !p.Leq(x, cand) {
				ok = false
				break
			}
		}
		if ok {
			p.top, p.hasTop = cand, true
			p.Props.Derive(prop.HasTop, prop.True, "enumerated")
			return cand, true
		}
	}
	p.Props.Derive(prop.HasTop, prop.False, "enumerated")
	return nil, false
}

// Bot returns the declared or discovered ⊥ element: ⊥ ≲ x for every x.
func (p *Preorder) Bot() (value.V, bool) {
	if p.hasBot {
		return p.bot, true
	}
	if p.Props.Fails(prop.HasBot) || !p.Car.Finite() {
		return nil, false
	}
	for _, cand := range p.Car.Elems {
		ok := true
		for _, x := range p.Car.Elems {
			if !p.Leq(cand, x) {
				ok = false
				break
			}
		}
		if ok {
			p.bot, p.hasBot = cand, true
			p.Props.Derive(prop.HasBot, prop.True, "enumerated")
			return cand, true
		}
	}
	p.Props.Derive(prop.HasBot, prop.False, "enumerated")
	return nil, false
}

// IsTop reports whether v is a/the top element (v ~ ⊤ suffices: the I
// property of Fig 3 exempts any element equivalent to ⊤).
func (p *Preorder) IsTop(v value.V) bool {
	t, ok := p.Top()
	if !ok {
		return false
	}
	return v == t || p.Equiv(v, t)
}

// MinSet returns min≲(A): the elements of A not strictly dominated by any
// other element of A. Duplicates (by ==) are removed; order of first
// appearance is preserved. This is the summarization step of the ordered
// quadrants and the basis of the min-set map between quadrants.
func (p *Preorder) MinSet(a []value.V) []value.V {
	var out []value.V
	for i, x := range a {
		dominated := false
		for j, y := range a {
			if i == j {
				continue
			}
			if p.Lt(y, x) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		dup := false
		for _, z := range out {
			if z == x {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// Lex returns the lexicographic product of s and t (§II):
//
//	(s1,t1) ≲ (s2,t2) ⟺ s1 < s2 ∨ (s1 ~ s2 ∧ t1 ≲ t2).
//
// Note the use of ~ rather than = on the left factor: the product respects
// the ordering of equivalent elements of S.
func Lex(s, t *Preorder) *Preorder {
	p := New("("+s.Name+" ×lex "+t.Name+")", value.Product(s.Car, t.Car),
		func(a, b value.V) bool {
			x, y := a.(value.Pair), b.(value.Pair)
			if s.Lt(x.A, y.A) {
				return true
			}
			return s.Equiv(x.A, y.A) && t.Leq(x.B, y.B)
		})
	// ⊤ and ⊥ of the product are the pairs of tops/bottoms when both
	// factors have them.
	if st, ok := s.Top(); ok {
		if tt, ok2 := t.Top(); ok2 {
			p.WithTop(value.Pair{A: st, B: tt})
		}
	}
	if sb, ok := s.Bot(); ok {
		if tb, ok2 := t.Bot(); ok2 {
			p.WithBot(value.Pair{A: sb, B: tb})
		}
	}
	return p
}

// Pointwise returns the componentwise (product) order on pairs:
// (s1,t1) ≲ (s2,t2) ⟺ s1 ≲ s2 ∧ t1 ≲ t2.
func Pointwise(s, t *Preorder) *Preorder {
	return New("("+s.Name+" × "+t.Name+")", value.Product(s.Car, t.Car),
		func(a, b value.V) bool {
			x, y := a.(value.Pair), b.(value.Pair)
			return s.Leq(x.A, y.A) && t.Leq(x.B, y.B)
		})
}

// Dual returns the opposite order ≳.
func Dual(s *Preorder) *Preorder {
	d := New("dual("+s.Name+")", s.Car, func(a, b value.V) bool { return s.Leq(b, a) })
	if t, ok := s.Top(); ok {
		d.WithBot(t)
	}
	if b, ok := s.Bot(); ok {
		d.WithTop(b)
	}
	return d
}

// Discrete returns the discrete order on car: a ≲ b ⟺ a = b.
// Every pair of distinct elements is incomparable.
func Discrete(car *value.Carrier) *Preorder {
	return New("discrete("+car.Name+")", car, func(a, b value.V) bool { return a == b })
}

// Chaotic returns the indiscrete preorder on car: a ≲ b always.
// Every pair of elements is equivalent.
func Chaotic(car *value.Carrier) *Preorder {
	return New("chaotic("+car.Name+")", car, func(a, b value.V) bool { return true })
}

// IntLeq is the usual order on int carriers.
func IntLeq(name string, car *value.Carrier) *Preorder {
	p := New(name, car, func(a, b value.V) bool { return a.(int) <= b.(int) })
	// A total order, declared so carriers too large (or infinite) to
	// enumerate still carry both facts into inference.
	p.Props.Declare(prop.Full)
	p.Props.Declare(prop.Antisymmetric)
	return p
}

// checkPairs runs pred over element pairs: exhaustively when the carrier is
// finite, over samples samples otherwise. It returns False with a witness
// on the first violation.
func (p *Preorder) checkPairs(r *rand.Rand, samples int,
	pred func(a, b value.V) (bool, string)) (prop.Status, string) {
	if p.Car.Finite() {
		for _, a := range p.Car.Elems {
			for _, b := range p.Car.Elems {
				if ok, w := pred(a, b); !ok {
					return prop.False, w
				}
			}
		}
		return prop.True, ""
	}
	for i := 0; i < samples; i++ {
		a, b := p.Car.Draw(r), p.Car.Draw(r)
		if ok, w := pred(a, b); !ok {
			return prop.False, w
		}
	}
	return prop.Unknown, ""
}

// CheckReflexive verifies x ≲ x.
func (p *Preorder) CheckReflexive(r *rand.Rand, samples int) (prop.Status, string) {
	if p.Car.Finite() {
		for _, a := range p.Car.Elems {
			if !p.Leq(a, a) {
				return prop.False, fmt.Sprintf("¬(%s ≲ %s)", value.Format(a), value.Format(a))
			}
		}
		return prop.True, ""
	}
	for i := 0; i < samples; i++ {
		a := p.Car.Draw(r)
		if !p.Leq(a, a) {
			return prop.False, fmt.Sprintf("¬(%s ≲ %s)", value.Format(a), value.Format(a))
		}
	}
	return prop.Unknown, ""
}

// CheckTransitive verifies x ≲ y ∧ y ≲ z ⇒ x ≲ z.
func (p *Preorder) CheckTransitive(r *rand.Rand, samples int) (prop.Status, string) {
	if p.Car.Finite() {
		for _, a := range p.Car.Elems {
			for _, b := range p.Car.Elems {
				if !p.Leq(a, b) {
					continue
				}
				for _, c := range p.Car.Elems {
					if p.Leq(b, c) && !p.Leq(a, c) {
						return prop.False, fmt.Sprintf("%s ≲ %s ≲ %s but ¬(%s ≲ %s)",
							value.Format(a), value.Format(b), value.Format(c), value.Format(a), value.Format(c))
					}
				}
			}
		}
		return prop.True, ""
	}
	for i := 0; i < samples; i++ {
		a, b, c := p.Car.Draw(r), p.Car.Draw(r), p.Car.Draw(r)
		if p.Leq(a, b) && p.Leq(b, c) && !p.Leq(a, c) {
			return prop.False, fmt.Sprintf("%s ≲ %s ≲ %s but ¬(%s ≲ %s)",
				value.Format(a), value.Format(b), value.Format(c), value.Format(a), value.Format(c))
		}
	}
	return prop.Unknown, ""
}

// CheckAntisymmetric verifies x ≲ y ∧ y ≲ x ⇒ x = y.
func (p *Preorder) CheckAntisymmetric(r *rand.Rand, samples int) (prop.Status, string) {
	return p.checkPairs(r, samples, func(a, b value.V) (bool, string) {
		if p.Leq(a, b) && p.Leq(b, a) && a != b {
			return false, fmt.Sprintf("%s ~ %s but %s ≠ %s",
				value.Format(a), value.Format(b), value.Format(a), value.Format(b))
		}
		return true, ""
	})
}

// CheckFull verifies x ≲ y ∨ y ≲ x (the order is a preference relation).
func (p *Preorder) CheckFull(r *rand.Rand, samples int) (prop.Status, string) {
	return p.checkPairs(r, samples, func(a, b value.V) (bool, string) {
		if !p.Leq(a, b) && !p.Leq(b, a) {
			return false, fmt.Sprintf("%s # %s", value.Format(a), value.Format(b))
		}
		return true, ""
	})
}

// CheckAll populates Props with judgements for the order-level properties.
// samples bounds the work on infinite carriers.
func (p *Preorder) CheckAll(r *rand.Rand, samples int) {
	record := func(id prop.ID, st prop.Status, w string) {
		rule := "model-check"
		if st == prop.Unknown {
			rule = "sampled"
		}
		p.Props.Put(id, prop.Judgement{Status: st, Rule: rule, Witness: w})
	}
	st, w := p.CheckReflexive(r, samples)
	record(prop.Reflexive, st, w)
	st, w = p.CheckTransitive(r, samples)
	record(prop.Transitive, st, w)
	st, w = p.CheckAntisymmetric(r, samples)
	record(prop.Antisymmetric, st, w)
	st, w = p.CheckFull(r, samples)
	record(prop.Full, st, w)
	if p.Car.Finite() {
		_, hasTop := p.Top()
		_ = hasTop
		_, _ = p.Bot()
	}
}
