package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"metarouting/internal/baselib"
	"metarouting/internal/fn"
	"metarouting/internal/ost"
	"metarouting/internal/prop"
	"metarouting/internal/value"
)

// inferNoFallback evaluates with rules only, so tests can tell rule-derived
// judgements apart from model-checked ones.
func inferNoFallback(t *testing.T, src string) *Algebra {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := InferWith(e, Options{Fallback: false})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func infer(t *testing.T, src string) *Algebra {
	t.Helper()
	a, err := InferString(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// modelCheck decides id on a fresh transform over a's order and
// functions: a.OT itself carries the inferred set (InferWith stamps it),
// so its Check would only read the judgement back.
func modelCheck(a *Algebra, id prop.ID) prop.Judgement {
	return ost.New("chk", a.OT.Ord, a.OT.F).Check(id, nil, 0)
}

// checkAgainstModel model-checks every rule-derived judgement of a finite
// algebra: the inference engine must never contradict the model.
func checkAgainstModel(t *testing.T, a *Algebra, label string) {
	t.Helper()
	if !a.OT.Finite() {
		return
	}
	for _, id := range routingIDs {
		derived := a.Props.Status(id)
		if derived == prop.Unknown {
			continue
		}
		j := modelCheck(a, id)
		if j.Status != derived {
			t.Errorf("%s: %s inferred %v (rule %q) but model says %v (%s)",
				label, id, derived, a.Props.Get(id).Rule, j.Status, j.Witness)
		}
	}
	for _, c := range a.Children {
		checkAgainstModel(t, c, label)
	}
}

func TestBaseInference(t *testing.T) {
	a := infer(t, "delay(6,2)")
	if !a.Props.Holds(prop.MLeft) || !a.Props.Holds(prop.ILeft) {
		t.Fatal("bounded delay must be M and I")
	}
	if !a.SupportsGlobalOptima() || !a.SupportsLocalOptima() {
		t.Fatal("delay supports both optima")
	}
	checkAgainstModel(t, a, "delay")
}

func TestUnknownBase(t *testing.T) {
	if _, err := InferString("nosuch(3)"); err == nil || !strings.Contains(err.Error(), "unknown base") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadArity(t *testing.T) {
	if _, err := InferString("delay(4)"); err == nil || !strings.Contains(err.Error(), "arguments") {
		t.Fatalf("err = %v", err)
	}
}

// TestTheorem4ViaRules: the rules alone (no fallback) must decide M for
// lex products of base algebras, and the answers must match the model.
func TestTheorem4ViaRules(t *testing.T) {
	cases := []struct {
		src  string
		want prop.Status
	}{
		// M(delay)∧M(bw)∧(N? delay bounded: ¬N; C(bw): ¬C) ⇒ ¬M.
		{"lex(delay(4,2), bw(4))", prop.False},
		// bw first: ¬N(bw), ¬C(delay) ⇒ ¬M — the §III example.
		{"lex(bw(4), delay(4,2))", prop.False},
		// origin is N (identity is injective); M(origin)∧M(delay)∧N(origin) ⇒ M.
		{"lex(origin(3), delay(4,2))", prop.True},
		// lp is C on the right side: M(bw)∧M(lp)∧(¬N(bw) but C(lp)) ⇒ M.
		{"lex(bw(4), lp(3))", prop.True},
		// tags is N (discrete order) and M ⇒ lex(tags, anything-M) is M.
		{"lex(tags(2), bw(3))", prop.True},
	}
	for _, c := range cases {
		a := inferNoFallback(t, c.src)
		got := a.Props.Status(prop.MLeft)
		if got != c.want {
			t.Errorf("%s: inferred M=%v, want %v (rule %q, witness %q)",
				c.src, got, c.want, a.Props.Get(prop.MLeft).Rule, a.Props.Get(prop.MLeft).Witness)
		}
		if !strings.Contains(a.Props.Get(prop.MLeft).Rule, "Thm4") {
			t.Errorf("%s: M must be decided by the Theorem 4 rule, got %q", c.src, a.Props.Get(prop.MLeft).Rule)
		}
		checkAgainstModel(t, a, c.src)
	}
}

// TestTheorem5ViaRules: ND and I of lex products.
func TestTheorem5ViaRules(t *testing.T) {
	cases := []struct {
		src    string
		wantND prop.Status
		wantI  prop.Status
	}{
		// Bounded delay has a ⊤ (its ceiling), so SI fails and ND of the
		// product needs ND of *both* factors; lp is not ND.
		{"lex(delay(4,2), lp(3))", prop.False, prop.False},
		// ND(bw) ∧ ND(origin) ⇒ ND; ¬I(bw) ⇒ ¬I (both operands topped).
		{"lex(bw(4), origin(2))", prop.True, prop.False},
		// ND(bw) ∧ ND(delay) ⇒ ND; ¬I(bw) kills I under the topped rule.
		{"lex(bw(4), delay(4,2))", prop.True, prop.False},
		// Both topped with I(S)∧T(S)∧I(T): the positive I case.
		{"lex(delay(4,2), delay(4,2))", prop.True, prop.True},
		// ¬ND(lp) and ¬SI(lp) ⇒ neither.
		{"lex(lp(3), delay(4,2))", prop.False, prop.False},
	}
	for _, c := range cases {
		a := inferNoFallback(t, c.src)
		if got := a.Props.Status(prop.NDLeft); got != c.wantND {
			t.Errorf("%s: ND=%v, want %v", c.src, got, c.wantND)
		}
		if got := a.Props.Status(prop.ILeft); got != c.wantI {
			t.Errorf("%s: I=%v, want %v", c.src, got, c.wantI)
		}
		checkAgainstModel(t, a, c.src)
	}
}

// TestTheorem6ScopedEmerges: the ⊙ characterization must fall out of rule
// composition: ND(S⊙T) ⟺ I(S)∧ND(T); I(S⊙T) ⟺ I(S)∧I(T);
// M(S⊙T) ⟺ M(S)∧M(T).
func TestTheorem6ScopedEmerges(t *testing.T) {
	// bw ⊙ delay: M(bw)∧M(delay) ⇒ M — even though lex fails.
	a := inferNoFallback(t, "scoped(bw(4), delay(4,2))")
	if a.Props.Status(prop.MLeft) != prop.True {
		t.Fatalf("M(bw ⊙ delay) must be derived True: %s", a.Props.Get(prop.MLeft))
	}
	// ND(S⊙T) ⟺ I(S)∧ND(T): ¬I(bw) ⇒ ¬ND.
	if a.Props.Status(prop.NDLeft) != prop.False {
		t.Fatalf("ND(bw ⊙ delay) must be False (bw is not increasing): %s", a.Props.Get(prop.NDLeft))
	}
	checkAgainstModel(t, a, "scoped(bw,delay)")

	// Bounded delay ⊙ bounded delay: M ∧ M ⇒ M; but the ceiling means
	// SI fails, so the refined rules (and the model!) deny I — the
	// paper-literal I(S)∧I(T) claim holds only for top-free operands.
	b := inferNoFallback(t, "scoped(delay(3,1), delay(3,1))")
	if b.Props.Status(prop.MLeft) != prop.True {
		t.Fatalf("M(delay ⊙ delay) must be True: %s", b.Props.Get(prop.MLeft))
	}
	if b.Props.Status(prop.ILeft) != prop.False {
		t.Fatalf("I(bounded delay ⊙ bounded delay) must be False: %s", b.Props.Get(prop.ILeft))
	}
	checkAgainstModel(t, b, "scoped(delay,delay)")

	// Top-free operands recover the paper-literal Theorem 6 verbatim:
	// I(S⊙T) ⟺ I(S)∧I(T) and ND(S⊙T) ⟺ I(S)∧ND(T).
	u := inferNoFallback(t, "scoped(delay(0,1), delay(0,1))")
	if u.Props.Status(prop.ILeft) != prop.True {
		t.Fatalf("I(delay∞ ⊙ delay∞) must be True: %s", u.Props.Get(prop.ILeft))
	}
	if u.Props.Status(prop.NDLeft) != prop.True {
		t.Fatalf("ND(delay∞ ⊙ delay∞) must be True: %s", u.Props.Get(prop.NDLeft))
	}
	if u.Props.Status(prop.MLeft) != prop.True {
		t.Fatalf("M(delay∞ ⊙ delay∞) must be True: %s", u.Props.Get(prop.MLeft))
	}

	// delay∞ ⊙ bw: I(delay∞)∧ND(bw) ⇒ ND; ¬I(bw) ⇒ ¬I.
	c := inferNoFallback(t, "scoped(delay(0,1), bw(3))")
	if c.Props.Status(prop.NDLeft) != prop.True {
		t.Fatalf("ND(delay∞ ⊙ bw) must be True: %s", c.Props.Get(prop.NDLeft))
	}
	if c.Props.Status(prop.ILeft) != prop.False {
		t.Fatalf("I(delay∞ ⊙ bw) must be False: %s", c.Props.Get(prop.ILeft))
	}
}

// TestTheorem7DeltaEmerges: M(SΔT) ⟺ M(S)∧M(T)∧(N(S)∨C(T)) — Δ keeps
// lex's extra requirement, unlike ⊙.
func TestTheorem7DeltaEmerges(t *testing.T) {
	a := inferNoFallback(t, "delta(bw(4), delay(4,2))")
	if a.Props.Status(prop.MLeft) != prop.False {
		t.Fatalf("M(bw Δ delay) must be False: %s", a.Props.Get(prop.MLeft))
	}
	checkAgainstModel(t, a, "delta(bw,delay)")

	b := inferNoFallback(t, "delta(origin(3), delay(4,2))")
	if b.Props.Status(prop.MLeft) != prop.True {
		t.Fatalf("M(origin Δ delay) must be True (N(origin)): %s", b.Props.Get(prop.MLeft))
	}
	// I(SΔT) ⟺ I(S)∧I(T): ¬I(origin) ⇒ ¬I.
	if b.Props.Status(prop.ILeft) != prop.False {
		t.Fatalf("I(origin Δ delay) must be False: %s", b.Props.Get(prop.ILeft))
	}
	checkAgainstModel(t, b, "delta(origin,delay)")
}

// TestScopedSummandsShareOrder: inference builds ⊙'s and Δ's two
// summands over one lexicographic order, so the algebra holds one pair
// carrier, not two equal ones.
func TestScopedSummandsShareOrder(t *testing.T) {
	for _, src := range []string{"scoped(bw(4), delay(64,4))", "delta(bw(4), delay(4,2))"} {
		_, sums := infer(t, src).OT.Construction()
		if len(sums) != 2 || sums[0].Ord != sums[1].Ord {
			t.Fatalf("%s: the summands do not share one order", src)
		}
	}
}

// TestLeftRightRules validates the §V facts the scoped expansion relies on.
func TestLeftRightRules(t *testing.T) {
	l := inferNoFallback(t, "left(delay(3,1))")
	if !l.Props.Holds(prop.MLeft) || !l.Props.Holds(prop.CLeft) {
		t.Fatal("left must be M and C by rule")
	}
	if !l.Props.Fails(prop.NDLeft) || !l.Props.Fails(prop.ILeft) {
		t.Fatal("left over a multi-class order must fail ND and I")
	}
	checkAgainstModel(t, l, "left(delay)")

	r := inferNoFallback(t, "right(delay(3,1))")
	if !r.Props.Holds(prop.MLeft) || !r.Props.Holds(prop.NLeft) || !r.Props.Holds(prop.NDLeft) {
		t.Fatal("right must be M, N, ND by rule")
	}
	if !r.Props.Fails(prop.ILeft) || !r.Props.Fails(prop.CLeft) {
		t.Fatal("right over a multi-class order must fail I and C")
	}
	checkAgainstModel(t, r, "right(delay)")

	// left/right over the unit algebra: single class flips the verdicts.
	lu := inferNoFallback(t, "left(unit)")
	if !lu.Props.Holds(prop.NDLeft) || !lu.Props.Holds(prop.ILeft) || !lu.Props.Holds(prop.NLeft) {
		t.Fatal("left(unit) must be ND, I and N")
	}
	checkAgainstModel(t, lu, "left(unit)")
}

func TestUnionRules(t *testing.T) {
	u := infer(t, "union(right(delay(3,1)), delay(3,1))")
	// union: P ⟺ P(S)∧P(T); right is ND, delay is ND ⇒ ND. right not I ⇒ ¬I.
	if !u.Props.Holds(prop.NDLeft) {
		t.Fatal("union must be ND")
	}
	if !u.Props.Fails(prop.ILeft) {
		t.Fatal("union with right(·) must fail I")
	}
	checkAgainstModel(t, u, "union")
}

func TestUnionRejectsMismatchedOrders(t *testing.T) {
	_, err := InferString("union(delay(3,1), bw(3))")
	if err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("err = %v", err)
	}
}

func TestAddTopRules(t *testing.T) {
	a := infer(t, "addtop(tags(2))")
	if !a.Props.Holds(prop.TopFixed) || !a.Props.Holds(prop.HasTop) {
		t.Fatal("addtop must fix a fresh ⊤")
	}
	if !a.Props.Fails(prop.CLeft) {
		t.Fatal("addtop kills C")
	}
	checkAgainstModel(t, a, "addtop(tags)")
}

// TestAddTopIRule: I(addtop(S)) ⟺ SI(S) — the old ceiling no longer
// counts as ⊤, so only an everywhere-strict S survives.
func TestAddTopIRule(t *testing.T) {
	a := inferNoFallback(t, "addtop(delay(3,1))")
	if a.Props.Status(prop.ILeft) != prop.False {
		t.Fatalf("I(addtop(bounded delay)) must be False: %s", a.Props.Get(prop.ILeft))
	}
	checkAgainstModel(t, a, "addtop(delay)")
	b := inferNoFallback(t, "addtop(delay(0,2))")
	if b.Props.Status(prop.ILeft) != prop.True {
		t.Fatalf("I(addtop(delay∞)) must be True (SI(delay∞)): %s", b.Props.Get(prop.ILeft))
	}
}

// TestFallbackOnUndeclaredBase: a registered base algebra with no declared
// properties leaves everything Unknown under rules alone; fallback model
// checking must settle every property of the finite structure.
func TestFallbackOnUndeclaredBase(t *testing.T) {
	Register(BaseSpec{
		Name: "mystery_test", Usage: "mystery_test(cap)", MinArgs: 1, MaxArgs: 1,
		Doc: "delay without declarations, for fallback testing",
		Build: func(a []int) (*ost.OrderTransform, error) {
			d := baselib.Delay(a[0], 1)
			d.Props = prop.Make() // strip declarations
			return d, nil
		},
	})
	defer delete(Registry, "mystery_test")
	noFb := inferNoFallback(t, "mystery_test(3)")
	if noFb.Props.Status(prop.MLeft) != prop.Unknown {
		t.Fatal("undeclared base must be Unknown without fallback")
	}
	withFb := infer(t, "mystery_test(3)")
	j := withFb.Props.Get(prop.MLeft)
	if j.Status != prop.True || !strings.Contains(j.Rule, "fallback") {
		t.Fatalf("fallback must establish M with provenance: %s", j)
	}
	if withFb.Props.Status(prop.ILeft) != prop.True {
		t.Fatal("fallback must establish I")
	}
}

// TestScopedOnInfiniteCarrier: the scoped expansion must work where the
// extensional union check cannot (unbounded delay), and the rules must
// still decide M.
func TestScopedOnInfiniteCarrier(t *testing.T) {
	a := inferNoFallback(t, "scoped(bw(8), delay(0,3))")
	if a.Props.Status(prop.MLeft) != prop.True {
		t.Fatalf("M(bw ⊙ delay∞) = %s", a.Props.Get(prop.MLeft))
	}
}

// TestBGPShape: the flagship expression — a BGP-like protocol:
// scoped(lex(lp, hops), lex(hops, bw)) … simplified to
// scoped(lp, lex(hops, bw)): inter-domain local-pref guarding an
// AS-internal hops-then-bandwidth lex.
func TestBGPShape(t *testing.T) {
	a := infer(t, "scoped(lex(lp(4), hops(8)), lex(hops(8), bw(4)))")
	// lp is not increasing, so the product cannot promise local optima
	// through the rules; check the engine produces a definite verdict on
	// every property for this finite structure.
	for _, id := range routingIDs {
		if a.Props.Status(id) == prop.Unknown {
			t.Fatalf("%s left Unknown on a finite structure", id)
		}
	}
	checkAgainstModel(t, a, "bgp-shape")
}

// TestNAryLexCorollary2: I(S1×…×Sn) ⟺ ∃k: SI(Sk) ∧ ∀j<k: ND(Sj) — the
// guard-chain structure of Corollary 2, with I read as SI per the
// truncation refinement.
func TestNAryLexCorollary2(t *testing.T) {
	// bw (ND, ¬SI), origin (ND, ¬SI), delay∞ (SI): the chain is I.
	a := inferNoFallback(t, "lex(bw(3), origin(2), delay(0,1))")
	if a.Props.Status(prop.ILeft) != prop.True {
		t.Fatalf("ND-guarded SI tail must give I: %s", a.Props.Get(prop.ILeft))
	}
	// The bounded tail is topped, so its SI fails and I dies with it —
	// and the model agrees.
	ab := inferNoFallback(t, "lex(bw(3), origin(2), delay(3,1))")
	if ab.Props.Status(prop.ILeft) != prop.False {
		t.Fatalf("bounded tail must fail I: %s", ab.Props.Get(prop.ILeft))
	}
	checkAgainstModel(t, ab, "3-ary lex bounded")
	// lp (¬ND) first: everything after is unguarded.
	b := inferNoFallback(t, "lex(lp(3), delay(3,1), delay(3,1))")
	if b.Props.Status(prop.ILeft) != prop.False {
		t.Fatalf("lp-first chain must fail I: %s", b.Props.Get(prop.ILeft))
	}
	checkAgainstModel(t, b, "lp-first lex")
}

func TestSampledFactsOnInfinite(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	e := MustParse("delay(0,2)")
	a, err := InferWith(e, Options{Fallback: true, Samples: 200, Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Props.Holds(FactStrictPair) || !a.Props.Holds(FactMultiClass) {
		t.Fatal("sampling must find witnesses for the existential facts")
	}
}

func TestReportAndVerdict(t *testing.T) {
	a := infer(t, "scoped(bw(4), delay(4,2))")
	rep := a.Report()
	for _, want := range []string{"scoped(bw(4), delay(4,2))", "global optima", "M", "bw(4)"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(a.Verdict(), "global optima") {
		t.Fatalf("verdict = %q", a.Verdict())
	}
	b := infer(t, "lex(bw(4), delay(0,3))")
	if !strings.Contains(b.Verdict(), "local optima") || strings.Contains(b.Verdict(), "global and local") {
		t.Fatalf("verdict = %q", b.Verdict())
	}
}

func TestRegistryListing(t *testing.T) {
	names := BaseNames()
	if len(names) < 8 {
		t.Fatalf("expected ≥8 base algebras, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("BaseNames must be sorted")
		}
	}
}

func TestRegisterRejectsOperatorNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register(BaseSpec{Name: "lex"})
}

// TestPlusOperator: the additive composite ⊞. The Gouda–Schneider rule
// fires when both operands are ND; otherwise fallback model checking
// settles the properties.
func TestPlusOperator(t *testing.T) {
	a := infer(t, "plus(delay(4,1), delay(4,2))")
	j := a.Props.Get(prop.NDLeft)
	if j.Status != prop.True {
		t.Fatalf("ND(delay ⊞ delay) must hold: %s", j)
	}
	if !strings.Contains(j.Rule, "Gouda") {
		t.Fatalf("ND must come from the Gouda–Schneider rule: %q", j.Rule)
	}
	checkAgainstModel(t, a, "plus(delay,delay)")

	// lp is not ND: the sufficient rule stays silent and fallback decides.
	b := infer(t, "plus(delay(3,1), lp(3))")
	jb := b.Props.Get(prop.NDLeft)
	if jb.Status == prop.Unknown {
		t.Fatal("fallback must settle ND on a finite composite")
	}
	if !strings.Contains(jb.Rule, "fallback") {
		t.Fatalf("non-ND operand must route through fallback: %q", jb.Rule)
	}
	checkAgainstModel(t, b, "plus(delay,lp)")
}

// TestPlusFallbackOnRuleSilence: when a component is not ND the
// sufficient rule stays silent and fallback decides. (On finite carriers
// the answer is necessarily False — any loss is unmasked at the other
// component's ceiling — which E14 records as a small theorem; the §VI
// gap only opens on unbounded carriers, which plus rejects.)
func TestPlusFallbackOnRuleSilence(t *testing.T) {
	// "discount" loses 1 per hop (not ND); delay(8,2) gains ≥1. Sum is
	// nondecreasing only if every delay step outweighs the discount: use
	// steps of exactly 1 loss vs gains of ≥1… gains of 1 tie, so use
	// minStep 2 via delay(8,2) with only +2 functions? delay's steps are
	// 1..maxStep; build the gap instance through the registry instead.
	Register(BaseSpec{
		Name: "discount_test", Usage: "discount_test(cap)", MinArgs: 1, MaxArgs: 1,
		Doc: "loses one unit per hop; not ND in isolation",
		Build: func(args []int) (*ost.OrderTransform, error) {
			cap := args[0]
			d := baselib.Delay(cap, 1) // reuse carrier/order shape
			dec := fn.Fn{Name: "-1", Apply: func(v value.V) value.V {
				x := v.(int) - 1
				if x < 0 {
					x = 0
				}
				return x
			}}
			return ost.New("discount", d.Ord, fn.NewFinite("F", []fn.Fn{dec})), nil
		},
	})
	defer delete(Registry, "discount_test")
	Register(BaseSpec{
		Name: "gain2_test", Usage: "gain2_test(cap)", MinArgs: 1, MaxArgs: 1,
		Doc: "gains exactly two units per hop",
		Build: func(args []int) (*ost.OrderTransform, error) {
			cap := args[0]
			d := baselib.Delay(cap, 1)
			inc := fn.Fn{Name: "+2", Apply: func(v value.V) value.V {
				x := v.(int) + 2
				if x > cap {
					x = cap
				}
				return x
			}}
			return ost.New("gain2", d.Ord, fn.NewFinite("F", []fn.Fn{inc})), nil
		},
	})
	defer delete(Registry, "gain2_test")

	a := infer(t, "plus(discount_test(8), gain2_test(8))")
	j := a.Props.Get(prop.NDLeft)
	// At the gain ceiling the sum drops (-1 + 0), so the model must find
	// False — the point is that the judgement is settled by fallback.
	if j.Status == prop.Unknown {
		t.Fatal("fallback must decide")
	}
	if strings.Contains(j.Rule, "Gouda") {
		t.Fatal("the sufficient rule must not fire (discount is not ND)")
	}
	checkAgainstModel(t, a, "plus(discount,gain2)")
}

func TestPlusRejectsInfiniteCarrier(t *testing.T) {
	if _, err := InferString("plus(delay(0,1), delay(4,1))"); err == nil {
		t.Fatal("plus over an infinite carrier must be rejected")
	}
}

// TestHugeFiniteCarrierFastPath: fact computation on very large finite
// carriers must not enumerate quadratically — inference of a 64k-element
// delay must return promptly (the guard routes it to the sampled path).
func TestHugeFiniteCarrierFastPath(t *testing.T) {
	done := make(chan *Algebra, 1)
	go func() {
		a, err := InferString("delay(65535,3)")
		if err != nil {
			t.Error(err)
		}
		done <- a
	}()
	select {
	case a := <-done:
		// Declared routing properties still arrive.
		if !a.Props.Holds(prop.MLeft) || !a.Props.Holds(prop.ILeft) {
			t.Fatal("declared properties must survive the fast path")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("inference on a 64k carrier took too long — fact enumeration guard broken")
	}
}

// TestRegistryArgumentValidation: every base algebra rejects out-of-range
// parameters with a usage message.
func TestRegistryArgumentValidation(t *testing.T) {
	bad := []string{
		"delay(0,0)",
		"hops(0)x", // parse error, not registry — keep the engine honest too
		"bw(0)",
		"rel(1)",
		"lp(0)",
		"origin(0)",
		"tags(0)",
		"tags(17)",
	}
	for _, src := range bad {
		if _, err := InferString(src); err == nil {
			t.Errorf("%s: expected an error", src)
		}
	}
	// hops(0) is the valid unbounded variant.
	if _, err := InferString("hops(0)"); err != nil {
		t.Errorf("hops(0) must be the unbounded hop count: %v", err)
	}
}

// TestScopedNAryComposition: policy hierarchies nest (inter-continent ⊙
// (inter-AS ⊙ intra-AS)) and the rules keep composing.
func TestScopedNAryComposition(t *testing.T) {
	a := infer(t, "scoped(origin(2), scoped(bw(3), delay(4,1)))")
	if !a.Props.Holds(prop.MLeft) {
		t.Fatal("nested scoped products of monotone operands must stay monotone (Theorem 6 twice)")
	}
	checkAgainstModel(t, a, "nested scoped")
}
