package compile_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/compile"
	"metarouting/internal/core"
	"metarouting/internal/fn"
	"metarouting/internal/order"
	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// sameTables compares New's composed tables with the oracle's
// whole-transform evaluation, field by field, and reports whether a
// compiles; where it does not, New must fail with the oracle's error.
func sameTables(t *testing.T, name string, a *ost.OrderTransform) bool {
	t.Helper()
	got, err := compile.New(a)
	want, werr := compile.Enumerate(a)
	if err != nil || werr != nil {
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: New fails with %v, the oracle with %v", name, err, werr)
		}
		return false
	}
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"N", got.N, want.N}, {"NumFns", got.NumFns, want.NumFns},
		{"Elems", got.Elems, want.Elems},
		{"Fn", got.Fn, want.Fn}, {"Rank", got.Rank, want.Rank},
		{"LeqBits", got.LeqBits, want.LeqBits}, {"LtBits", got.LtBits, want.LtBits},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: composed %s differs from the enumerated one", name, f.field)
		}
	}
	for i, e := range want.Elems {
		gi, gok := got.Index(e)
		wi, wok := want.Index(e)
		if gi != wi || gok != wok || !gok {
			t.Fatalf("%s: composed Index(%s) = %d, %v; enumerated %d, %v (element %d)",
				name, value.Format(e), gi, gok, wi, wok, i)
		}
	}
	for _, v := range []value.V{"outside", value.Pair{A: "outside", B: 0}, value.Top{}} {
		gi, gok := got.Index(v)
		wi, wok := want.Index(v)
		if gok != wok || gok && gi != wi {
			t.Fatalf("%s: composed Index(%s) = %d, %v; enumerated %d, %v", name, value.Format(v), gi, gok, wi, wok)
		}
	}
	return true
}

// mustMatch is sameTables for an algebra that must compile.
func mustMatch(t *testing.T, name string, a *ost.OrderTransform) {
	t.Helper()
	if !sameTables(t, name, a) {
		t.Fatalf("%s: does not compile", name)
	}
}

// TestComposedTablesMatchEnumeration: the tables New composes from each
// operator's operands — Elems, Index, Fn, Rank, LeqBits and LtBits —
// are exactly the ones evaluating the whole transform gives, on the
// named algebras of TestTableLicencesMatchPlan, on 200 compilable draws
// from each of its generators, and on hand cases for each rule's corner:
// Δ, an additive composite (a leaf whose order has ties) under lex, ⊤
// adjoined to a carrier that holds it (at its end, and in its middle),
// left and right over an order with ties as lex's first factor, the
// tags partial order that keeps its matrices, a union whose operands
// order their carrier differently, and a leaf that only compiles under
// addtop. Ranked composites past exec.AutoLimit's 4 096 elements, whose
// ranks compose with no matrix built above their leaves, are checked
// too, where evaluating the whole transform stays affordable: lex, addtop,
// left, right and Δ over them, and the query workloads' 8 448-element
// product.
func TestComposedTablesMatchEnumeration(t *testing.T) {
	for _, src := range []string{
		"scoped(bw(4), delay(64,4))", "lex(delay(32,3), hops(8))", "lex(delay(16,3), hops(8))",
		"scoped(hops(16), delay(64,4))", "delay(8,2)", "bw(4)", "lex(bw(4), hops(8))",
		"scoped(bw(4), lex(tags(2), tags(2)))", "lex(delay(6,3), tags(2))", "gadget", "left(bw(8))",
		"addtop(delay(8,2))",
		"delta(bw(4), delay(8,2))", "delta(lex(lp(3), bw(4)), hops(4))",
		"plus(lp(3), lp(3))", "lex(plus(lp(3), lp(3)), delay(4,2))", "scoped(plus(delay(3,1), lp(3)), bw(4))",
		"addtop(addtop(delay(8,2)))", "addtop(scoped(addtop(bw(4)), addtop(hops(4))))",
		"lex(right(plus(lp(3), lp(3))), bw(4))", "lex(left(plus(lp(3), lp(3))), hops(4))",
		"scoped(tags(2), hops(4))", "lex(tags(2), addtop(tags(2)))", "union(delay(8,2), hops(8))",
		"lex(delay(64,2), hops(63))", "addtop(lex(delay(64,2), hops(63)))", "lex(right(delay(64,2)), left(hops(63)))",
		"delta(bw(4), delay(1024,2))", "lex(delay(255,3), hops(32))",
		"lex(addtop(right(delay(16,3))), right(lex(delay(16,3), delay(16,3))))",
	} {
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		mustMatch(t, src, a.OT)
	}

	// A tie on the left of lex, built directly: 0 ~ 1 and 2 ~ 3 under
	// x/2; and under addtop, a carrier that holds ⊤ in its middle and
	// orders it lowest, so adjoining moves ⊤'s row and column both.
	table := func(name string, tab ...int) fn.Fn {
		return fn.Fn{Name: name, Apply: func(v value.V) value.V { return tab[v.(int)] }}
	}
	tied := ost.New("tied", order.New("tied", value.Ints(0, 3), func(a, b value.V) bool { return a.(int)/2 <= b.(int)/2 }),
		fn.NewFinite("F_tied", []fn.Fn{table("swap", 1, 0, 3, 2), table("fold", 2, 3, 3, 2)}))
	hop := baselib.HopCount(3)
	mustMatch(t, "lex(tied, hops)", ost.Lex(tied, hop))
	mustMatch(t, "scoped(tied, hops)", ost.Scoped(tied, hop))
	mustMatch(t, "lex(left(tied), right(tied))", ost.Lex(ost.Left(tied), ost.Right(tied)))
	// A union whose operands list one carrier in two orders: T's rows
	// index T's carrier, so no rule applies and New enumerates.
	rev := ost.New("rev", order.New("rev", value.NewFinite("{3..0}", []value.V{3, 2, 1, 0}), tied.Ord.Leq),
		fn.NewFinite("F_rev", []fn.Fn{{Name: "κ0", Apply: func(value.V) value.V { return 0 }}}))
	mustMatch(t, "tied + rev", ost.Union(tied, rev))
	top := value.V(value.Top{})
	midTop := ost.New("midtop", order.New("midtop", value.NewFinite("{0,⊤,1}", []value.V{0, top, 1}),
		func(a, b value.V) bool { return a == top || b != top && a.(int) <= b.(int) }),
		fn.NewFinite("F", []fn.Fn{{Name: "κ1", Apply: func(value.V) value.V { return 1 }}}))
	mustMatch(t, "addtop(midtop)", ost.AddTop(midTop))
	mustMatch(t, "lex(addtop(midtop), tied)", ost.Lex(ost.AddTop(midTop), tied))
	// A leaf whose function leaves its carrier for ⊤ does not compile,
	// nor does a lex over it, but adjoining ⊤ closes it: the composition
	// fails below and New evaluates the root, as the oracle does.
	toTop := ost.New("totop", tied.Ord,
		fn.NewFinite("F", []fn.Fn{{Name: "κ⊤", Apply: func(value.V) value.V { return top }}}))
	mustMatch(t, "addtop(totop)", ost.AddTop(toTop))
	if sameTables(t, "lex(totop, hops)", ost.Lex(toTop, hop)) {
		t.Fatal("lex(totop, hops) maps outside its carrier and must not compile")
	}

	for _, gen := range []struct {
		name string
		draw func(*rand.Rand, int) string
	}{{"ltExpr", ltExpr}, {"tagsExpr", tagsExpr}} {
		t.Run(gen.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			n := 0
			for tries := 0; n < 200; tries++ {
				if tries == 3000 {
					t.Fatalf("generator: %d compilable algebras in %d draws", n, tries)
				}
				src := gen.draw(r, 2)
				a, err := core.InferString(src)
				if err != nil || !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
					continue
				}
				if sameTables(t, src, a.OT) {
					n++
				}
			}
		})
	}
}
