package core

import (
	"fmt"
	"math/rand"
	"strings"

	"metarouting/internal/ost"
	"metarouting/internal/prop"
)

// Algebra is the result of evaluating a metarouting expression: the
// constructed order transform together with the inferred property set and
// the evaluated children (for reporting).
type Algebra struct {
	// Expr is the source expression (nil for internal nodes synthesized
	// while expanding scoped/delta).
	Expr Expr
	// OT is the constructed routing algebra.
	OT *ost.OrderTransform
	// Props holds the inferred routing properties and cardinality facts.
	Props prop.Set
	// Children are the evaluated operand algebras.
	Children []*Algebra
}

// SupportsGlobalOptima reports whether the algebra is known monotonic —
// the requirement for globally optimal routing (§II). Monotonicity
// guarantees that a converged fixpoint iteration yields weights that
// dominate every path; see SupportsDijkstra for the stronger condition
// under which the greedy Dijkstra generalization is also correct.
func (a *Algebra) SupportsGlobalOptima() bool { return a.Props.Holds(prop.MLeft) }

// SupportsDijkstra reports whether the generalized Dijkstra algorithm is
// known correct for the algebra: monotone (M), nondecreasing (ND — the
// greedy settle order assumes extensions never improve a route), and a
// full (total) preorder so that a minimal unsettled node always exists.
func (a *Algebra) SupportsDijkstra() bool {
	return a.Props.Holds(prop.MLeft) && a.Props.Holds(prop.NDLeft) && a.Props.Holds(prop.Full)
}

// SupportsLocalOptima reports whether the algebra is known increasing —
// the requirement for path-vector convergence to locally optimal paths
// (§II).
func (a *Algebra) SupportsLocalOptima() bool { return a.Props.Holds(prop.ILeft) }

// ForwardingCaveat is the line the command-line tools print at boot for
// an algebra that derives ¬ND, and "" for any other. Without ND an arc
// may improve a weight, so the optimum over walks (all that M promises)
// need not be a simple path and following next hops need not realise it:
// the route tables still hold the optimal weights, and the serve plane
// marks each answer whose next hops loop ("forwardable":false).
func (a *Algebra) ForwardingCaveat() string {
	if !a.Props.Fails(prop.NDLeft) {
		return ""
	}
	return "the algebra derives ¬ND: an arc may improve a weight, so weights are optima over walks, not" +
		" simple paths, and hop-by-hop forwarding is not promised" +
		" (route answers carry \"forwardable\":false and \"loop_at\" where next hops loop)"
}

// Options configures inference.
type Options struct {
	// Fallback enables model checking for properties the rules leave
	// Unknown, on finitely enumerable structures.
	Fallback bool
	// Samples bounds sampled checks on infinite structures (0 disables
	// sampling).
	Samples int
	// Rand seeds sampled checks; required when Samples > 0.
	Rand *rand.Rand
}

// DefaultOptions enables fallback model checking with no sampling.
func DefaultOptions() Options { return Options{Fallback: true} }

// Infer parses nothing — it evaluates an already-parsed expression with
// DefaultOptions.
func Infer(e Expr) (*Algebra, error) { return InferWith(e, DefaultOptions()) }

// InferString parses and evaluates a source expression.
func InferString(src string) (*Algebra, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Infer(e)
}

// InferWith evaluates an expression: it builds the order transform
// bottom-up and derives each node's properties from its children's using
// the exact rules (Theorems 4–5 for ×lex, the §V rules for left, right
// and +; scoped and Δ are expanded into those operators, so Theorems 6–7
// emerge by composition). Properties the rules cannot decide are model
// checked when opt.Fallback is set and the structure is finite.
func InferWith(e Expr, opt Options) (*Algebra, error) {
	switch n := e.(type) {
	case BaseExpr:
		spec, ok := Registry[n.Name]
		if !ok {
			return nil, fmt.Errorf("core: unknown base algebra %q (known: %s)",
				n.Name, strings.Join(BaseNames(), ", "))
		}
		if len(n.Args) < spec.MinArgs || len(n.Args) > spec.MaxArgs {
			return nil, fmt.Errorf("core: %s: want %d..%d arguments, got %d (usage: %s)",
				n.Name, spec.MinArgs, spec.MaxArgs, len(n.Args), spec.Usage)
		}
		ot, err := spec.Build(n.Args)
		if err != nil {
			return nil, err
		}
		a := &Algebra{Expr: e, OT: ot, Props: seedProps(ot, opt)}
		finishNode(a, opt)
		return a, nil
	case OpExpr:
		kids := make([]*Algebra, len(n.Args))
		for i, arg := range n.Args {
			k, err := InferWith(arg, opt)
			if err != nil {
				return nil, err
			}
			kids[i] = k
		}
		var a *Algebra
		var err error
		switch n.Op {
		case OpLex:
			a = kids[0]
			for _, k := range kids[1:] {
				a = combineLex(a, k)
			}
		case OpLeft:
			a = applyLeft(kids[0])
		case OpRight:
			a = applyRight(kids[0])
		case OpAddTop:
			a = applyAddTop(kids[0])
		case OpPlus:
			a, err = combinePlus(kids[0], kids[1], opt)
		case OpUnion:
			a, err = combineUnion(kids[0], kids[1])
		case OpScoped:
			// The two summands share their order by construction, so the
			// extensional order check is unnecessary (and would reject
			// infinite carriers it cannot compare).
			a = combineUnionUnchecked(combineLex(kids[0], applyLeft(kids[1])),
				combineLex(applyRight(kids[0]), kids[1]))
			a.OT.Name = "(" + kids[0].OT.Name + " ⊙ " + kids[1].OT.Name + ")"
		case OpDelta:
			a = combineUnionUnchecked(combineLex(kids[0], kids[1]),
				combineLex(applyRight(kids[0]), kids[1]))
			a.OT.Name = "(" + kids[0].OT.Name + " Δ " + kids[1].OT.Name + ")"
		default:
			err = fmt.Errorf("core: unknown operator %q", n.Op)
		}
		if err != nil {
			return nil, err
		}
		a.Expr = e
		a.Children = kids
		finishNode(a, opt)
		return a, nil
	default:
		return nil, fmt.Errorf("core: unknown expression node %T", e)
	}
}

// routingIDs are the properties the engine derives for every node.
var routingIDs = []prop.ID{prop.MLeft, prop.NLeft, prop.CLeft, prop.NDLeft, prop.ILeft, prop.SILeft, prop.TopFixed}

// seedProps initializes a base node's property set from the algebra's
// declared properties plus computed/sampled cardinality facts.
func seedProps(ot *ost.OrderTransform, opt Options) prop.Set {
	p := prop.Make()
	for _, id := range routingIDs {
		if j := ot.Props.Get(id); j.Status != prop.Unknown {
			p.Put(id, j)
		}
	}
	computeFacts(ot, p, opt)
	return p
}

// computeFacts fills in HasTop and the cardinality facts. Existential
// facts (≥2 elements, ≥2 classes, a strict pair) are established by
// witness: enumeration when finite, sampling otherwise — a sampled
// witness is still a proof.
// factEnumLimit bounds the carrier size for exhaustive fact enumeration;
// larger finite carriers fall back to the sampled-witness path (the
// enumeration is quadratic — a delay(65535,·) carrier would cost billions
// of comparisons).
const factEnumLimit = 2048

func computeFacts(ot *ost.OrderTransform, p prop.Set, opt Options) {
	car := ot.Ord.Car
	if car.Finite() && len(car.Elems) <= factEnumLimit {
		if _, ok := ot.Ord.Top(); ok {
			p.Derive(prop.HasTop, prop.True, "enumerated")
		} else {
			p.Derive(prop.HasTop, prop.False, "enumerated")
		}
		p.Derive(FactMultiElem, prop.FromBool(len(car.Elems) >= 2), "enumerated")
		multiClass, strictPair, full, anti := prop.False, prop.False, prop.True, prop.True
		for i, a := range car.Elems {
			for _, b := range car.Elems[i+1:] {
				if !ot.Ord.Equiv(a, b) {
					multiClass = prop.True
				} else {
					anti = prop.False
				}
				if ot.Ord.Lt(a, b) || ot.Ord.Lt(b, a) {
					strictPair = prop.True
				}
				if ot.Ord.Incomp(a, b) {
					full = prop.False
				}
			}
		}
		p.Derive(FactMultiClass, multiClass, "enumerated")
		p.Derive(FactStrictPair, strictPair, "enumerated")
		p.Derive(prop.Full, full, "enumerated")
		p.Derive(prop.Antisymmetric, anti, "enumerated")
		return
	}
	// Infinite carrier: HasTop as declared on the order; existential
	// facts by sampled witness.
	if j := ot.Ord.Props.Get(prop.HasTop); j.Status != prop.Unknown {
		p.Put(prop.HasTop, j)
	}
	for _, id := range []prop.ID{prop.Full, prop.Antisymmetric} {
		if j := ot.Ord.Props.Get(id); j.Status != prop.Unknown {
			p.Put(id, j)
		}
	}
	p.Derive(FactMultiElem, prop.True, "infinite carrier")
	if opt.Samples > 0 && opt.Rand != nil {
		for i := 0; i < opt.Samples; i++ {
			a, b := car.Draw(opt.Rand), car.Draw(opt.Rand)
			if !ot.Ord.Equiv(a, b) && p.Status(FactMultiClass) != prop.True {
				p.Derive(FactMultiClass, prop.True, "sampled witness")
			}
			if (ot.Ord.Lt(a, b) || ot.Ord.Lt(b, a)) && p.Status(FactStrictPair) != prop.True {
				p.Derive(FactStrictPair, prop.True, "sampled witness")
			}
			if p.Holds(FactMultiClass) && p.Holds(FactStrictPair) {
				break
			}
		}
	}
}

// finishNode runs fallback model checking for rule-undecided properties.
func finishNode(a *Algebra, opt Options) {
	if !opt.Fallback {
		return
	}
	for _, id := range routingIDs {
		if a.Props.Status(id) != prop.Unknown {
			continue
		}
		if !a.OT.Finite() && (opt.Samples == 0 || opt.Rand == nil) {
			continue
		}
		j := a.OT.Check(id, opt.Rand, opt.Samples)
		if j.Status != prop.Unknown {
			j.Rule = "fallback " + j.Rule
			a.Props.Put(id, j)
		}
	}
}

// st is shorthand for a child's property status.
func st(a *Algebra, id prop.ID) prop.Status { return a.Props.Status(id) }

// combineLex derives S ×lex T: the order transform via ost.Lex and the
// properties via the exact rules.
func combineLex(s, t *Algebra) *Algebra {
	p := prop.Make()
	// Theorem 4: M(S×T) ⟺ M(S) ∧ M(T) ∧ (N(S) ∨ C(T)).
	p.Derive(prop.MLeft,
		prop.And(prop.And(st(s, prop.MLeft), st(t, prop.MLeft)),
			prop.Or(st(s, prop.NLeft), st(t, prop.CLeft))),
		"Thm4: M(S×T) ⟺ M(S)∧M(T)∧(N(S)∨C(T))")
	// Theorem 5, with I read as SI (strictly increasing everywhere) —
	// the exemption-free form under which the rule is exact for order
	// transforms whose ⊤, if any, is an ordinary saturating weight.
	// When neither operand has a ⊤ the paper-literal statement
	// (ND(S×T) ⟺ I(S)∨(ND(S)∧ND(T))) is recovered verbatim, since SI = I
	// in the absence of a top.
	siProd := prop.Or(st(s, prop.SILeft), prop.And(st(s, prop.NDLeft), st(t, prop.SILeft)))
	p.Derive(prop.SILeft, siProd, "Thm5: SI(S×T) ⟺ SI(S)∨(ND(S)∧SI(T))")
	p.Derive(prop.NDLeft,
		prop.Or(st(s, prop.SILeft), prop.And(st(s, prop.NDLeft), st(t, prop.NDLeft))),
		"Thm5: ND(S×T) ⟺ SI(S)∨(ND(S)∧ND(T))")
	// I (with the ⊤ exemption) depends on where the product's ⊤ comes
	// from. When both operands have tops, the product top is the pair of
	// tops and the exemption only covers it, so every non-top pair —
	// including pairs whose first component is ⊤_S — must strictly
	// increase: I(S×T) ⟺ I(S) ∧ T(S) ∧ I(T). When the product has no
	// top, I coincides with SI.
	hs, ht := st(s, prop.HasTop), st(t, prop.HasTop)
	prodTop := prop.And(hs, ht)
	var iProd prop.Status
	iRule := "Thm5(I): topless product ⇒ I = SI"
	switch {
	case prodTop == prop.True:
		iProd = prop.And(st(s, prop.ILeft), prop.And(st(s, prop.TopFixed), st(t, prop.ILeft)))
		iRule = "Thm5(I): both tops ⇒ I(S×T) ⟺ I(S)∧T(S)∧I(T)"
	case prodTop == prop.False:
		iProd = siProd
	default:
		iProd = prop.Unknown
		if siProd == prop.True {
			iProd = prop.True // SI ⇒ I regardless of tops.
			iRule = "SI ⇒ I"
		}
	}
	p.Derive(prop.ILeft, iProd, iRule)
	// Componentwise lemmas (validated by TestLexComponentwiseLemmas):
	// lex equivalence is componentwise, so N, C and T distribute.
	p.Derive(prop.NLeft, prop.And(st(s, prop.NLeft), st(t, prop.NLeft)),
		"lemma: N(S×T) ⟺ N(S)∧N(T)")
	p.Derive(prop.CLeft, prop.And(st(s, prop.CLeft), st(t, prop.CLeft)),
		"lemma: C(S×T) ⟺ C(S)∧C(T)")
	hasTop := prop.And(st(s, prop.HasTop), st(t, prop.HasTop))
	p.Derive(prop.HasTop, hasTop, "lex tops pair up")
	p.Derive(prop.TopFixed, prop.And(hasTop, prop.And(st(s, prop.TopFixed), st(t, prop.TopFixed))),
		"lemma: T(S×T) ⟺ ⊤ exists ∧ T(S)∧T(T)")
	// Cardinality facts combine disjunctively; fullness conjunctively
	// (the lex product of full preorders is full, and an incomparable
	// pair in either factor lifts to the product).
	p.Derive(FactMultiElem, prop.Or(st(s, FactMultiElem), st(t, FactMultiElem)), "product")
	p.Derive(FactMultiClass, prop.Or(st(s, FactMultiClass), st(t, FactMultiClass)), "product")
	p.Derive(FactStrictPair, prop.Or(st(s, FactStrictPair), st(t, FactStrictPair)), "product")
	p.Derive(prop.Full, prop.And(st(s, prop.Full), st(t, prop.Full)), "lex of full orders is full")
	// Lex equivalence is componentwise, so a tie in either factor lifts to
	// a tie between two distinct pairs.
	p.Derive(prop.Antisymmetric, prop.And(st(s, prop.Antisymmetric), st(t, prop.Antisymmetric)),
		"lex: antisymmetric ⟺ both factors are")
	return &Algebra{OT: ost.Lex(s.OT, t.OT), Props: p}
}

// applyLeft derives left(S) (§V): constants are monotone and condensed;
// N fails exactly when S has a strict pair; ND and I fail exactly when S
// has more than one equivalence class; T requires a one-element carrier.
func applyLeft(s *Algebra) *Algebra {
	p := prop.Make()
	p.Derive(prop.MLeft, prop.True, "left: constants are monotone")
	p.Derive(prop.CLeft, prop.True, "left: constants are condensed")
	p.Derive(prop.NLeft, prop.Not(st(s, FactStrictPair)), "left: N ⟺ no strict pair")
	p.Derive(prop.NDLeft, prop.Not(st(s, FactMultiClass)), "left: ND ⟺ single class")
	p.Derive(prop.ILeft, prop.Not(st(s, FactMultiClass)), "left: I ⟺ single class")
	p.Derive(prop.SILeft, prop.False, "left: κ_a(a) = a never strictly increases")
	p.Derive(prop.TopFixed,
		prop.And(st(s, prop.HasTop), prop.Not(st(s, FactMultiClass))),
		"left: T ⟺ single class with ⊤ (κ_b(⊤) ~ ⊤ for all b)")
	copyFacts(s, p)
	return &Algebra{OT: ost.Left(s.OT), Props: p}
}

// applyRight derives right(S) (§V): the identity is monotone,
// cancellative and nondecreasing; I and C hold exactly when the order is
// a single equivalence class; T holds exactly when ⊤ exists.
func applyRight(s *Algebra) *Algebra {
	p := prop.Make()
	p.Derive(prop.MLeft, prop.True, "right: id is monotone")
	p.Derive(prop.NLeft, prop.True, "right: id is cancellative")
	p.Derive(prop.NDLeft, prop.True, "right: a ≲ id(a)")
	p.Derive(prop.ILeft, prop.Not(st(s, FactMultiClass)), "right: I ⟺ single class")
	p.Derive(prop.SILeft, prop.False, "right: id never strictly increases")
	p.Derive(prop.CLeft, prop.Not(st(s, FactMultiClass)), "right: C ⟺ single class")
	p.Derive(prop.TopFixed, st(s, prop.HasTop), "right: id fixes ⊤ when it exists")
	copyFacts(s, p)
	return &Algebra{OT: ost.Right(s.OT), Props: p}
}

// applyAddTop derives addtop(S): the fresh ⊤ is fixed by construction;
// M, N and ND restrict to S; C dies (⊤ is separated from everything);
// I is only derivable when S had no ⊤ — otherwise the old top class must
// now strictly increase, which the rules cannot see, so it is left
// Unknown for fallback checking.
func applyAddTop(s *Algebra) *Algebra {
	p := prop.Make()
	p.Derive(prop.MLeft, st(s, prop.MLeft), "addtop preserves M")
	p.Derive(prop.NLeft, st(s, prop.NLeft), "addtop preserves N")
	p.Derive(prop.NDLeft, st(s, prop.NDLeft), "addtop preserves ND")
	p.Derive(prop.CLeft, prop.False, "addtop: ⊤ is separated from S")
	p.Derive(prop.TopFixed, prop.True, "addtop: ⊤ fixed by construction")
	p.Derive(prop.HasTop, prop.True, "addtop")
	// Every old element must now strictly increase (none is equivalent to
	// the fresh ⊤), so I(addtop(S)) is exactly SI(S); and the fresh ⊤
	// itself never strictly increases, so SI dies.
	p.Derive(prop.ILeft, st(s, prop.SILeft), "addtop: I(addtop(S)) ⟺ SI(S)")
	p.Derive(prop.SILeft, prop.False, "addtop: ⊤ does not strictly increase")
	p.Derive(FactMultiElem, prop.True, "addtop adds an element")
	p.Derive(FactMultiClass, prop.True, "addtop: ⊤ is a new class")
	p.Derive(FactStrictPair, prop.True, "addtop: a < ⊤")
	p.Derive(prop.Full, st(s, prop.Full), "addtop: ⊤ is comparable to everything")
	p.Derive(prop.Antisymmetric, st(s, prop.Antisymmetric), "addtop: ⊤ is a class of its own")
	return &Algebra{OT: ost.AddTop(s.OT), Props: p}
}

// combinePlus derives the additive composite S ⊞ T (§VI discussion).
// Only Gouda & Schneider's *sufficient* condition is known:
// ND(S) ∧ ND(T) ⇒ ND(S⊞T) — the paper explicitly leaves exact criteria
// open, so everything else goes to fallback model checking. Both
// operands must have finite int carriers.
func combinePlus(s, t *Algebra, opt Options) (*Algebra, error) {
	for _, k := range []*Algebra{s, t} {
		if !k.OT.Carrier().Finite() {
			return nil, fmt.Errorf("core: plus requires finite carriers (%s is not)", k.OT.Name)
		}
		for _, e := range k.OT.Carrier().Elems {
			if _, ok := e.(int); !ok {
				return nil, fmt.Errorf("core: plus requires int carriers (%s is not)", k.OT.Name)
			}
		}
	}
	ot := ost.AdditiveComposite(s.OT, t.OT, 1, 1)
	p := prop.Make()
	if prop.And(st(s, prop.NDLeft), st(t, prop.NDLeft)) == prop.True {
		p.Derive(prop.NDLeft, prop.True, "Gouda–Schneider: ND(S)∧ND(T) ⇒ ND(S⊞T) (sufficient only)")
	}
	computeFacts(ot, p, opt)
	return &Algebra{OT: ot, Props: p}, nil
}

// combineUnion derives S + T (§V): P(S+T) ⟺ P(S) ∧ P(T) for every
// universally quantified routing property. The operands must share their
// weight order; this is checked extensionally for finite carriers.
func combineUnion(s, t *Algebra) (*Algebra, error) {
	if err := sameOrder(s.OT, t.OT); err != nil {
		return nil, err
	}
	return combineUnionUnchecked(s, t), nil
}

// combineUnionUnchecked is combineUnion for operands known by
// construction to share their order (the scoped/Δ expansions).
func combineUnionUnchecked(s, t *Algebra) *Algebra {
	p := prop.Make()
	for _, id := range routingIDs {
		p.Derive(id, prop.And(st(s, id), st(t, id)), "union: P(S+T) ⟺ P(S)∧P(T)")
	}
	p.Derive(prop.HasTop, st(s, prop.HasTop), "union shares the order")
	copyFacts(s, p)
	return &Algebra{OT: ost.Union(s.OT, t.OT), Props: p}
}

// copyFacts copies the cardinality facts of s into p (operators that keep
// the carrier and order unchanged).
func copyFacts(s *Algebra, p prop.Set) {
	for _, id := range []prop.ID{FactMultiElem, FactMultiClass, FactStrictPair, prop.Full, prop.Antisymmetric} {
		if j := s.Props.Get(id); j.Status != prop.Unknown {
			p.Put(id, j)
		}
	}
	if _, ok := p[prop.HasTop]; !ok {
		if j := s.Props.Get(prop.HasTop); j.Status != prop.Unknown {
			p.Put(prop.HasTop, j)
		}
	}
}

// sameOrder verifies that two order transforms share their weight order,
// as the disjoint function union requires. Identical pointers always
// pass; finite carriers are compared extensionally; anything else fails.
func sameOrder(a, b *ost.OrderTransform) error {
	if a.Ord == b.Ord {
		return nil
	}
	ca, cb := a.Ord.Car, b.Ord.Car
	if !ca.Finite() || !cb.Finite() || len(ca.Elems) != len(cb.Elems) {
		return fmt.Errorf("core: union operands %s and %s do not share a carrier", a.Name, b.Name)
	}
	for _, x := range ca.Elems {
		if !cb.Contains(x) {
			return fmt.Errorf("core: union operands %s and %s have different carriers (%s only in the first)",
				a.Name, b.Name, fmt.Sprint(x))
		}
	}
	for _, x := range ca.Elems {
		for _, y := range ca.Elems {
			if a.Ord.Leq(x, y) != b.Ord.Leq(x, y) {
				return fmt.Errorf("core: union operands %s and %s order %v, %v differently",
					a.Name, b.Name, x, y)
			}
		}
	}
	return nil
}
