package ost

import (
	"math/rand"
	"testing"

	"metarouting/internal/fn"
	"metarouting/internal/order"
	"metarouting/internal/prop"
	"metarouting/internal/value"
)

// delayOT is a small bounded delay algebra: ({0..cap}, ≤, {+1..+maxStep sat}).
func delayOT(cap, maxStep int) *OrderTransform {
	car := value.Ints(0, cap)
	fns := make([]fn.Fn, 0, maxStep)
	for d := 1; d <= maxStep; d++ {
		d := d
		fns = append(fns, fn.Fn{Name: "+" + string(rune('0'+d)), Apply: func(v value.V) value.V {
			x := v.(int) + d
			if x > cap {
				x = cap
			}
			return x
		}})
	}
	o := order.IntLeq("≤", car)
	o.WithTop(cap)
	return New("delay", o, fn.NewFinite("F", fns))
}

// bwOT is a small bandwidth algebra: ({0..cap}, ≥, {min(·,c)}).
func bwOT(cap int) *OrderTransform {
	car := value.Ints(0, cap)
	fns := make([]fn.Fn, 0, cap+1)
	for c := 0; c <= cap; c++ {
		c := c
		fns = append(fns, fn.Fn{Name: "cap", Apply: func(v value.V) value.V {
			if v.(int) < c {
				return v
			}
			return c
		}})
	}
	o := order.New("≥", car, func(a, b value.V) bool { return a.(int) >= b.(int) })
	o.WithTop(0)
	return New("bw", o, fn.NewFinite("F", fns))
}

func TestDelayProperties(t *testing.T) {
	d := delayOT(5, 2)
	d.CheckAll(nil, 0)
	if !d.Props.Holds(prop.MLeft) {
		t.Fatalf("delay must be monotone: %s", d.Props.Get(prop.MLeft).Witness)
	}
	if !d.Props.Holds(prop.NDLeft) || !d.Props.Holds(prop.ILeft) {
		t.Fatal("delay must be ND and I")
	}
	if !d.Props.Holds(prop.TopFixed) {
		t.Fatal("saturating delay fixes ⊤")
	}
	if !d.Props.Fails(prop.NLeft) {
		t.Fatal("bounded delay cannot be cancellative (ceiling collapses)")
	}
}

func TestBandwidthProperties(t *testing.T) {
	b := bwOT(4)
	b.CheckAll(nil, 0)
	if !b.Props.Holds(prop.MLeft) || !b.Props.Holds(prop.NDLeft) {
		t.Fatal("bandwidth must be M and ND")
	}
	if !b.Props.Fails(prop.ILeft) {
		t.Fatal("bandwidth is not increasing (wide links keep the bottleneck)")
	}
	if !b.Props.Fails(prop.NLeft) {
		t.Fatal("bandwidth is not cancellative")
	}
}

// TestSobrinhoExample reproduces §III's example:
// M(delay ×lex bw) when delay is cancellative, and ¬M(bw ×lex delay).
// On the bounded carrier delay loses N at the ceiling, so we use the
// direction that the paper's analysis explains: bandwidth-first fails.
func TestSobrinhoExampleBandwidthFirstFailsM(t *testing.T) {
	l := Lex(bwOT(3), delayOT(3, 2))
	st, w := l.CheckM(nil, 0)
	if st != prop.False {
		t.Fatal("bw ×lex delay must fail monotonicity")
	}
	if w == "" {
		t.Fatal("expected a concrete counterexample")
	}
}

func TestLexComponentFunctionsActComponentwise(t *testing.T) {
	l := Lex(delayOT(3, 1), bwOT(3))
	f := l.F.Fns[0]
	got := f.Apply(value.Pair{A: 1, B: 2})
	if _, ok := got.(value.Pair); !ok {
		t.Fatalf("lex function must return a pair: %v", got)
	}
}

func TestLeftRightShapes(t *testing.T) {
	d := delayOT(3, 1)
	l := Left(d)
	if l.F.Size() != 4 {
		t.Fatalf("left must have one constant per element: %d", l.F.Size())
	}
	r := Right(d)
	if r.F.Size() != 1 || r.F.Fns[0].Name != "id" {
		t.Fatal("right must have exactly the identity")
	}
	r.CheckAll(nil, 0)
	if !r.Props.Holds(prop.MLeft) || !r.Props.Holds(prop.NLeft) || !r.Props.Holds(prop.NDLeft) {
		t.Fatal("right must be M, N, ND")
	}
	if !r.Props.Fails(prop.ILeft) {
		t.Fatal("right on a multi-class order is not increasing")
	}
	l.CheckAll(nil, 0)
	if !l.Props.Holds(prop.MLeft) || !l.Props.Holds(prop.CLeft) {
		t.Fatal("left must be M and C")
	}
	if !l.Props.Fails(prop.NDLeft) {
		t.Fatal("left on a multi-class order is not ND")
	}
}

// TestScopedFunctionTable verifies §II's table for ⊙:
//
//	(1, (f, κ_c))(a, b) = (f(a), c)   inter-region
//	(2, (id, g))(a, b)  = (a, g(b))   intra-region
func TestScopedFunctionTable(t *testing.T) {
	s := delayOT(3, 1)
	u := bwOT(3)
	sc := Scoped(s, u)
	if !sc.F.Finite() {
		t.Fatal("scoped of finite operands must be finite")
	}
	interSeen, intraSeen := false, false
	for _, f := range sc.F.Fns {
		got := f.Apply(value.Pair{A: 1, B: 2}).(value.Pair)
		switch {
		case got.A != 1: // first component transformed: inter-region
			interSeen = true
			// second component must be freshly originated (a constant,
			// independent of the input's second component).
			got2 := f.Apply(value.Pair{A: 1, B: 0}).(value.Pair)
			if got2.B != got.B {
				t.Fatalf("inter-region function %s must originate its second component", f.Name)
			}
		default: // first component copied: could be inter (f=id impossible here: all fns are +d) or intra
			intraSeen = true
			// intra-region: second transformed by u's functions from the
			// input value; first copied.
			if got.A != 1 {
				t.Fatalf("intra-region function %s must copy the first component", f.Name)
			}
		}
	}
	if !interSeen || !intraSeen {
		t.Fatal("scoped must contain both inter- and intra-region functions")
	}
}

// TestScopedMonotone: Theorem 6 headline — bandwidth ⊙ delay is monotone
// although bandwidth ×lex delay is not.
func TestScopedMonotone(t *testing.T) {
	bw, d := bwOT(3), delayOT(3, 2)
	lex := Lex(bw, d)
	if st, _ := lex.CheckM(nil, 0); st != prop.False {
		t.Fatal("bw ×lex delay must fail M")
	}
	sc := Scoped(bw, d)
	if st, w := sc.CheckM(nil, 0); st != prop.True {
		t.Fatalf("bw ⊙ delay must be monotone; counterexample: %s", w)
	}
}

// TestDeltaNeedsMore: Theorem 7 — with the same operands, Δ fails M
// because it inherits lex's N(S) ∨ C(T) requirement.
func TestDeltaNeedsMore(t *testing.T) {
	bw, d := bwOT(3), delayOT(3, 2)
	dl := Delta(bw, d)
	if st, _ := dl.CheckM(nil, 0); st != prop.False {
		t.Fatal("bw Δ delay must fail monotonicity (N(bw) and C(delay) both fail)")
	}
}

func TestUnionProperties(t *testing.T) {
	d := delayOT(3, 1)
	u := Union(d, Right(d))
	u.CheckAll(nil, 0)
	// union is ND iff both are; right is ND, delay is ND.
	if !u.Props.Holds(prop.NDLeft) {
		t.Fatal("union of ND algebras must be ND")
	}
	// union is I iff both are; right is not I.
	if !u.Props.Fails(prop.ILeft) {
		t.Fatal("union with right(·) must fail I")
	}
}

func TestAddTop(t *testing.T) {
	// An algebra without ⊤: unbounded-ish delay on a discrete slice is
	// awkward; instead strip the top by using a cyclic successor.
	car := value.Ints(0, 3)
	succ := fn.Fn{Name: "succ", Apply: func(v value.V) value.V { return (v.(int) + 1) % 4 }}
	o := order.Discrete(car)
	s := New("cyc", o, fn.NewFinite("F", []fn.Fn{succ}))
	a := AddTop(s)
	top, ok := a.Ord.Top()
	if !ok || top != value.V(value.Top{}) {
		t.Fatalf("AddTop must install ⊤: %v %v", top, ok)
	}
	if st, _ := a.CheckT(nil, 0); st != prop.True {
		t.Fatal("AddTop must fix ⊤ under every function")
	}
	if !a.Ord.Leq(2, value.Top{}) || a.Ord.Leq(value.Top{}, 2) {
		t.Fatal("⊤ must sit strictly above every old element")
	}
	// Old elements keep their old relations.
	if a.Ord.Leq(1, 2) {
		t.Fatal("old discrete relations must persist")
	}
}

func TestPathWeightCompositionOrder(t *testing.T) {
	d := delayOT(10, 3)
	plus1, _ := d.F.ByName("+1")
	plus2, _ := d.F.ByName("+2")
	// v(p) applies the destination-side function first.
	got := d.PathWeight([]fn.Fn{plus1, plus2}, 0)
	if got != 3 {
		t.Fatalf("path weight = %v", got)
	}
}

func TestCheckMemoization(t *testing.T) {
	d := delayOT(4, 1)
	j1 := d.Check(prop.MLeft, nil, 0)
	if j1.Status != prop.True {
		t.Fatal("delay is monotone")
	}
	j2 := d.Check(prop.MLeft, nil, 0)
	if j2 != j1 {
		t.Fatal("second Check must return the memoized judgement")
	}
}

func TestSampledCheckInfinite(t *testing.T) {
	car := value.NewSampled("ℕ", func(r *rand.Rand) value.V { return r.Intn(1000) })
	o := order.IntLeq("≤", car)
	bad := New("dec", o, fn.NewFinite("F", []fn.Fn{{
		Name: "-1", Apply: func(v value.V) value.V {
			if v.(int) == 0 {
				return 0
			}
			return v.(int) - 1
		},
	}}))
	r := rand.New(rand.NewSource(4))
	if st, _ := bad.CheckND(r, 300); st != prop.False {
		t.Fatal("sampling must catch the decreasing function")
	}
	good := New("inc", o, fn.NewFinite("F", []fn.Fn{{
		Name: "+1", Apply: func(v value.V) value.V { return v.(int) + 1 },
	}}))
	if st, _ := good.CheckND(r, 300); st != prop.Unknown {
		t.Fatal("sampling a true property must stay Unknown")
	}
}

func TestAddTopInfiniteFunctionSet(t *testing.T) {
	// AddTop over a sampled function set must lift drawn functions.
	car := value.Ints(0, 3)
	s := New("inf", order.IntLeq("≤", car),
		fn.NewSampled("F∞", func(r *rand.Rand) fn.Fn { return fn.Const(r.Intn(4)) }))
	a := AddTop(s)
	r := rand.New(rand.NewSource(9))
	f := a.F.Draw(r)
	if f.Apply(value.Top{}) != value.V(value.Top{}) {
		t.Fatal("lifted functions must fix ⊤")
	}
	if _, ok := f.Apply(1).(int); !ok {
		t.Fatal("lifted functions must act as before on old elements")
	}
}

func TestAdditiveComposite(t *testing.T) {
	d := delayOT(3, 1)
	c := AdditiveComposite(d, d, 1, 2)
	// Order: 1·a + 2·b; (1,1) ≲ (3,0) since 3 ≤ 3.
	if !c.Ord.Leq(value.Pair{A: 1, B: 1}, value.Pair{A: 3, B: 0}) {
		t.Fatal("weighted sum order wrong")
	}
	if c.Ord.Lt(value.Pair{A: 1, B: 1}, value.Pair{A: 3, B: 0}) {
		t.Fatal("equal sums must be equivalent")
	}
	// Functions act componentwise.
	got := c.F.Fns[0].Apply(value.Pair{A: 1, B: 1}).(value.Pair)
	if got.A != 2 || got.B != 2 {
		t.Fatalf("componentwise application broken: %v", got)
	}
}

func TestAdditiveCompositePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-int carriers")
		}
	}()
	d := delayOT(2, 1)
	AdditiveComposite(Lex(d, d), d, 1, 1)
}

func TestCheckUnknownProperty(t *testing.T) {
	d := delayOT(3, 1)
	if j := d.Check(prop.ID("nonsense"), nil, 0); j.Status != prop.Unknown {
		t.Fatal("unknown property IDs must stay Unknown")
	}
}

// TestConstructionRecord: each rule operator records itself and its
// operands, New records a leaf, and Scoped and Delta, built from Lex,
// Left, Right and Union, keep one pointer per operand however often it
// appears — what lets a consumer build a shared operand once.
func TestConstructionRecord(t *testing.T) {
	s, u := bwOT(3), delayOT(6, 2)
	if r, ops := s.Construction(); r != Leaf || ops != nil {
		t.Fatalf("New: rule %d, %d operands; want a leaf", r, len(ops))
	}
	for _, c := range []struct {
		name string
		got  *OrderTransform
		rule Rule
		ops  []*OrderTransform
	}{
		{"lex", Lex(s, u), RuleLex, []*OrderTransform{s, u}},
		{"left", Left(u), RuleLeft, []*OrderTransform{u}},
		{"right", Right(s), RuleRight, []*OrderTransform{s}},
		{"union", Union(u, u), RuleUnion, []*OrderTransform{u, u}},
		{"addtop", AddTop(s), RuleAddTop, []*OrderTransform{s}},
	} {
		r, ops := c.got.Construction()
		if r != c.rule || len(ops) != len(c.ops) {
			t.Fatalf("%s: rule %d with %d operands, want %d with %d", c.name, r, len(ops), c.rule, len(c.ops))
		}
		for i := range ops {
			if ops[i] != c.ops[i] {
				t.Fatalf("%s: operand %d is not the one it was built from", c.name, i)
			}
		}
	}
	for name, x := range map[string]*OrderTransform{"scoped": Scoped(s, u), "delta": Delta(s, u)} {
		r, sums := x.Construction()
		if r != RuleUnion {
			t.Fatalf("%s: rule %d, want a union", name, r)
		}
		_, inter := sums[0].Construction()
		_, intra := sums[1].Construction()
		_, rightS := intra[0].Construction()
		if inter[0] != s || rightS[0] != s || intra[1] != u {
			t.Fatalf("%s: the operands are not shared by pointer", name)
		}
	}
}
