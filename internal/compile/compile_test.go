package compile

import (
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/core"
	"metarouting/internal/fn"
	"metarouting/internal/order"
	"metarouting/internal/ost"
	"metarouting/internal/prop"
	"metarouting/internal/value"
)

// Solver-level correctness of the compiled form (compiled vs dynamic
// equivalence on every algorithm) lives in the engine differential tests
// of internal/exec; this file checks the tables themselves.

func alg(t testing.TB, src string) *ost.OrderTransform {
	t.Helper()
	a, err := core.InferString(src)
	if err != nil {
		t.Fatal(err)
	}
	return a.OT
}

func TestCompileTables(t *testing.T) {
	a := alg(t, "delay(8,2)")
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 9 || c.NumFns != 2 || len(c.Fn) != 18 {
		t.Fatalf("shape: N=%d fns=%d table=%d", c.N, c.NumFns, len(c.Fn))
	}
	// +1 saturating: index of value v is v for Ints carriers.
	if c.Apply(0, 3) != 4 || c.Apply(0, 8) != 8 {
		t.Fatal("+1 table wrong")
	}
	if !c.Leq(2, 5) || c.Leq(5, 2) || !c.Lt(2, 5) || c.Lt(2, 2) {
		t.Fatal("order tables wrong")
	}
}

func TestCompileRejectsInfinite(t *testing.T) {
	if _, err := New(alg(t, "delay(0,2)")); err == nil {
		t.Fatal("infinite carriers must be rejected")
	}
}

func TestCompilePairCarrier(t *testing.T) {
	a := alg(t, "lex(bw(4), delay(8,2))")
	c, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != a.Carrier().Size() {
		t.Fatalf("carrier size: %d vs %d", c.N, a.Carrier().Size())
	}
	// Round-trip every element through the index and spot-check the order
	// tables against the dynamic preorder.
	for i, e := range c.Elems {
		if c.Index[e] != i {
			t.Fatalf("index round-trip broken at %d", i)
		}
	}
	for i := 0; i < c.N; i += 3 {
		for j := 0; j < c.N; j += 5 {
			if c.Leq(int32(i), int32(j)) != a.Ord.Leq(c.Elems[i], c.Elems[j]) {
				t.Fatalf("Leq(%d,%d) disagrees with dynamic order", i, j)
			}
		}
	}
}

func TestBisemigroupTables(t *testing.T) {
	b := baselib.MinPlus(64)
	c, err := NewBisemigroup(b)
	if err != nil {
		t.Fatal(err)
	}
	xi, okX := c.Index[3]
	yi, okY := c.Index[5]
	if !okX || !okY {
		t.Fatal("carrier elements missing from index")
	}
	x, y := int32(xi), int32(yi)
	if got := c.Elems[c.Add(x, y)]; got != b.Add.Op(3, 5) {
		t.Fatalf("⊕ table: got %v want %v", got, b.Add.Op(3, 5))
	}
	if got := c.Elems[c.Mul(x, y)]; got != b.Mul.Op(3, 5) {
		t.Fatalf("⊗ table: got %v want %v", got, b.Mul.Op(3, 5))
	}
}

func TestBisemigroupRejectsOversize(t *testing.T) {
	if _, err := NewBisemigroup(baselib.MinPlus(MaxBisemigroupCarrier + 8)); err == nil {
		t.Fatal("oversize bisemigroup carriers must be rejected")
	}
}

// corpus is the base algebras plus the products of the
// engine-differential corpus and the serving workloads', each with
// whether its preorder is total.
var corpus = []struct {
	expr  string
	total bool
}{
	{"delay(8,2)", true}, {"delay(16,3)", true}, {"bw(4)", true}, {"bw(8)", true},
	{"hops(8)", true}, {"lp(3)", true}, {"origin(4)", true}, {"rel(4)", true},
	{"gadget", true}, {"unit", true}, {"tags(2)", false},
	{"lex(delay(8,2), bw(4))", true}, {"lex(bw(4), hops(8), lp(3))", true},
	{"scoped(bw(4), delay(8,4))", true}, {"scoped(lp(3), lex(hops(8), bw(4)))", true},
	{"delta(bw(4), delay(8,2))", true}, {"addtop(delay(8,2))", true},
	{"left(bw(8))", true}, {"right(delay(16,3))", true}, {"addtop(scoped(bw(4), hops(8)))", true},
	{"lex(delay(6,3), tags(2))", false}, {"scoped(tags(2), hops(4))", false},
	{"scoped(bw(4), delay(64,4))", true}, {"lex(delay(32,3), hops(8))", true},
	{"lex(delay(6,3), hops(4))", true},
}

// TestRankMatchesMatrices: every base algebra and the products of the
// engine-differential corpus, compiled, answer Leq, Lt and Equiv exactly
// as the order they were compiled from does, on every pair — by rank
// where one was derived, by matrix where not — and which of the two an
// algebra gets is as predicted: a rank and no matrices for total
// preorders, matrices and no rank for the discrete tags order and
// anything built on it. A cyclic "order" (each element strictly below
// the next, the last below the first) gives every element the same
// count of strict predecessors; the cell-by-cell check must refuse it.
func TestRankMatchesMatrices(t *testing.T) {
	for _, c := range corpus {
		a := alg(t, c.expr)
		cc, err := New(a)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if (cc.Rank != nil) != c.total || (cc.LeqBits == nil) != c.total || (cc.LtBits == nil) != c.total {
			t.Fatalf("%s: rank %v, matrices %v/%v; want total = %v",
				c.expr, cc.Rank != nil, cc.LeqBits != nil, cc.LtBits != nil, c.total)
		}
		for i := int32(0); int(i) < cc.N; i++ {
			for j := int32(0); int(j) < cc.N; j++ {
				x, y := cc.Elems[i], cc.Elems[j]
				if cc.Leq(i, j) != a.Ord.Leq(x, y) || cc.Lt(i, j) != a.Ord.Lt(x, y) || cc.Equiv(i, j) != a.Ord.Equiv(x, y) {
					t.Fatalf("%s: (%d,%d) compiled ≲/</~ = %v/%v/%v, order says %v/%v/%v", c.expr, i, j,
						cc.Leq(i, j), cc.Lt(i, j), cc.Equiv(i, j), a.Ord.Leq(x, y), a.Ord.Lt(x, y), a.Ord.Equiv(x, y))
				}
			}
		}
	}

	const n = 5
	cyclic := ost.New("cyclic", order.New("cyclic", value.Ints(0, n-1), func(a, b value.V) bool {
		x, y := a.(int), b.(int)
		return x == y || (x+1)%n == y
	}), fn.IdentityOnly())
	cc, err := New(cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Rank != nil || cc.LeqBits == nil || cc.LtBits == nil {
		t.Fatal("a non-transitive order must keep its matrices and get no rank")
	}
	if !cc.Lt(0, 1) || !cc.Lt(n-1, 0) || cc.Lt(0, 2) || cc.Leq(1, 0) || !cc.Equiv(3, 3) {
		t.Fatal("the refused order must still answer from its matrices")
	}
}

// TestTableLicencesMatchInference is the table half of ROADMAP 1(e).
// What inference derives must hold on every cell of the compiled table —
// M ⇒ a ≲ b implies f(a) ≲ f(b) on every pair, I ⇒ a < f(a) below ⊤, ND
// ⇒ a ≲ f(a) — and a violation is an inference bug. The tables' own
// verdict on M and strict I is the plan's oracle (licence_test.go).
func TestTableLicencesMatchInference(t *testing.T) {
	for _, c := range corpus {
		a, err := core.InferString(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := New(a.OT)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		n := int32(cc.N)
		mono, inc, nd := true, true, true
		for f := 0; f < cc.NumFns; f++ {
			for x := int32(0); x < n; x++ {
				fx := cc.Apply(f, x)
				nd = nd && cc.Leq(x, fx)
				inc = inc && (a.OT.Ord.IsTop(cc.Elems[x]) || cc.Lt(x, fx))
				for y := int32(0); y < n; y++ {
					mono = mono && (!cc.Leq(x, y) || cc.Leq(fx, cc.Apply(f, y)))
				}
			}
		}
		for _, p := range []struct {
			id    prop.ID
			table bool
		}{{prop.MLeft, mono}, {prop.ILeft, inc}, {prop.NDLeft, nd}} {
			if a.Props.Holds(p.id) && !p.table {
				t.Errorf("%s: inference derives %s but the compiled table violates it", c.expr, p.id)
			}
		}
	}
}
