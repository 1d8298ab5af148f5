package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"metarouting/internal/prop"
)

// randExpr derives a deterministic random expression from a seed: small
// base algebras composed with random operators, depth ≤ 3.
func randExpr(r *rand.Rand, depth int) Expr {
	bases := []Expr{
		Base("delay", 3, 1),
		Base("bw", 3),
		Base("lp", 2),
		Base("origin", 2),
		Base("tags", 1),
		Base("unit"),
		Base("gadget"),
	}
	if depth == 0 || r.Intn(3) == 0 {
		return bases[r.Intn(len(bases))]
	}
	switch r.Intn(5) {
	case 0:
		return Lex(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return Scoped(randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return Delta(randExpr(r, depth-1), randExpr(r, depth-1))
	case 3:
		return LeftE(randExpr(r, depth-1))
	default:
		return RightE(randExpr(r, depth-1))
	}
}

// Property: for every random expression, the rule-derived judgements
// never contradict exhaustive model checks — soundness of the whole
// inference engine over its expressible universe.
func TestQuickInferenceSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 2)
		a, err := InferWith(e, Options{Fallback: false})
		if err != nil {
			return true // expression invalid (e.g. oversized): vacuous
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 600 {
			return true // too large to model check in a quick property
		}
		for _, id := range routingIDs {
			derived := a.Props.Status(id)
			if derived == prop.Unknown {
				continue
			}
			j := modelCheck(a, id)
			if j.Status != derived {
				t.Logf("expr %s: %s derived %v, model %v (%s)", e, id, derived, j.Status, j.Witness)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: parse(render(e)) is identity on rendered form for random
// expressions.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		again, err := Parse(e.String())
		if err != nil {
			return false
		}
		return again.String() == e.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: lex is associative at the property level — lex(a, b, c)
// derives the same routing properties as lex(lex(a, b), c).
func TestQuickLexPropertyAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randExpr(r, 0)
		b := randExpr(r, 0)
		c := randExpr(r, 0)
		flat, err1 := InferWith(Lex(a, b, c), Options{Fallback: false})
		nested, err2 := InferWith(Lex(Lex(a, b), c), Options{Fallback: false})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		for _, id := range routingIDs {
			if flat.Props.Status(id) != nested.Props.Status(id) {
				t.Logf("%s/%s/%s: %s differs: %v vs %v", a, b, c, id,
					flat.Props.Status(id), nested.Props.Status(id))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: fallback never *changes* a rule-derived judgement — it only
// fills Unknowns.
func TestQuickFallbackOnlyFills(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 2)
		bare, err := InferWith(e, Options{Fallback: false})
		if err != nil {
			return true
		}
		full, err := InferWith(e, Options{Fallback: true})
		if err != nil {
			return false
		}
		for _, id := range routingIDs {
			b := bare.Props.Status(id)
			if b != prop.Unknown && full.Props.Status(id) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: SI ⇒ I and I ⇒ ND never violated in derived property sets
// (logical coherence of the judgements the engine hands out).
func TestQuickPropertyImplications(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 2)
		a, err := Infer(e)
		if err != nil {
			return true
		}
		si, i, nd := a.Props.Status(prop.SILeft), a.Props.Status(prop.ILeft), a.Props.Status(prop.NDLeft)
		if si == prop.True && i == prop.False {
			return false
		}
		// I ⇒ ND holds only when ⊤-equivalent elements also satisfy
		// a ≲ f(a)… which T guarantees; check the guarded implication.
		if i == prop.True && a.Props.Holds(prop.TopFixed) && nd == prop.False {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
