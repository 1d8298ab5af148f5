package compile_test

import (
	"fmt"
	"math/rand"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/solve"
)

// The compiled tables as an oracle for the plan: M and strict I
// evaluated cell by cell on the tables must be exactly the kernel the
// algebra's inferred judgements license (solve.NewPlan), so the tables
// add no proof that inference lacks and the plan loses none by not
// reading them.

// licences checks M and strict I on a ranked table. An injective rank
// is a permutation of 0..n-1, so walking it in rank order visits each
// weight once, lowest first: a row is monotone iff the ranks it maps
// that walk to never fall, and strictly increasing iff it raises every
// weight but the last one visited, the top, which it must fix. A rank
// shared by two weights licenses neither.
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

// ltExpr draws the kernel tests' algebras: lex, scoped, addtop and right
// over finite and unbounded delay, bw, hops and lp.
func ltExpr(r *rand.Rand, depth int) string {
	bases := []string{"delay(8,2)", "delay(16,3)", "delay(0,2)", "bw(4)", "hops(8)", "hops(0)", "lp(3)"}
	if depth <= 0 || r.Intn(3) == 0 {
		return bases[r.Intn(len(bases))]
	}
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("lex(%s, %s)", ltExpr(r, depth-1), ltExpr(r, depth-1))
	case 1:
		return fmt.Sprintf("scoped(%s, %s)", ltExpr(r, depth-1), ltExpr(r, depth-1))
	case 2:
		return fmt.Sprintf("addtop(%s)", ltExpr(r, depth-1))
	default:
		return fmt.Sprintf("right(%s)", ltExpr(r, depth-1))
	}
}

// tagsExpr draws over a wider base set — the discrete tags order,
// reliability, origin codes — and the left operator as well, so ¬Full,
// ¬Antisymmetric and reset-function products reach the oracle.
func tagsExpr(r *rand.Rand, depth int) string {
	bases := []string{"delay(8,2)", "bw(4)", "hops(8)", "lp(3)", "tags(2)", "rel(4)", "origin(4)"}
	if depth <= 0 || r.Intn(3) == 0 {
		return bases[r.Intn(len(bases))]
	}
	switch r.Intn(5) {
	case 0:
		return fmt.Sprintf("lex(%s, %s)", tagsExpr(r, depth-1), tagsExpr(r, depth-1))
	case 1:
		return fmt.Sprintf("scoped(%s, %s)", tagsExpr(r, depth-1), tagsExpr(r, depth-1))
	case 2:
		return fmt.Sprintf("addtop(%s)", tagsExpr(r, depth-1))
	case 3:
		return fmt.Sprintf("left(%s)", tagsExpr(r, depth-1))
	default:
		return fmt.Sprintf("right(%s)", tagsExpr(r, depth-1))
	}
}

// TestTableLicencesMatchPlan: on the named algebras — the policy and
// query products, the bases and the rank-less and non-monotone products
// of the corpus — and on at least 200 random compilable algebras from
// each generator, the tables' cell-by-cell M and strict I equal the
// kernel of NewPlan on the compiled engine, and tables without a rank
// (a preorder that is not total) get no kernel. The named algebras pin
// the kernel's value as well.
func TestTableLicencesMatchPlan(t *testing.T) {
	var verdicts [2][2]int // [M][strict I] over the ranked tables
	check := func(t *testing.T, src string) bool {
		a, err := core.InferString(src)
		if err != nil || !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			return false
		}
		eng, err := exec.Compile(a.OT)
		if err != nil {
			return false
		}
		k := solve.NewPlan(eng).Kernel
		tab := exec.Tables(eng)
		if tab == nil {
			if k.M || k.I {
				t.Errorf("%s: kernel %v on an order without a rank", src, k)
			}
			return true
		}
		m, i := licences(tab.N, tab.NumFns, tab.Fn, tab.Rank)
		if m != k.M || i != k.I {
			t.Errorf("%s: the tables verify M=%v strict-I=%v, the plan's kernel is M=%v I=%v", src, m, i, k.M, k.I)
		}
		verdicts[b2i(m)][b2i(i)]++
		return true
	}
	for _, c := range []struct {
		expr string
		m, i bool
	}{
		{"scoped(bw(4), delay(64,4))", true, false}, {"lex(delay(32,3), hops(8))", false, true},
		{"lex(delay(16,3), hops(8))", false, true}, {"scoped(hops(16), delay(64,4))", true, false},
		{"delay(8,2)", true, true}, {"bw(4)", true, false}, {"lex(bw(4), hops(8))", false, false},
		{"scoped(bw(4), lex(tags(2), tags(2)))", false, false}, {"lex(delay(6,3), tags(2))", false, false},
		{"gadget", false, false}, {"left(bw(8))", true, false}, {"addtop(delay(8,2))", true, false},
	} {
		if !check(t, c.expr) {
			t.Fatalf("%s: does not compile", c.expr)
		}
		a, _ := core.InferString(c.expr)
		eng, _ := exec.Compile(a.OT)
		if k := solve.NewPlan(eng).Kernel; k.M != c.m || k.I != c.i {
			t.Errorf("%s: kernel M=%v I=%v, want M=%v I=%v", c.expr, k.M, k.I, c.m, c.i)
		}
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
				if check(t, gen.draw(r, 2)) {
					n++
				}
			}
		})
	}
	if verdicts[1][0] == 0 || verdicts[0][1] == 0 || verdicts[1][1] == 0 || verdicts[0][0] == 0 {
		t.Fatalf("corpus lost its teeth: verdicts [M][strict I] %v", verdicts)
	}
	t.Logf("ranked tables by [M][strict I]: %v", verdicts)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
