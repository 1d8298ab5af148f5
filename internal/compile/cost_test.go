package compile_test

import (
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/compile"
	"metarouting/internal/fn"
	"metarouting/internal/order"
	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// counted is the leaf s with its order test and every arc function
// counting their calls into *calls.
func counted(s *ost.OrderTransform, calls *int) *ost.OrderTransform {
	leq := s.Ord.Leq
	ord := order.New(s.Ord.Name, s.Ord.Car, func(a, b value.V) bool { *calls++; return leq(a, b) })
	fns := make([]fn.Fn, len(s.F.Fns))
	for i, f := range s.F.Fns {
		apply := f.Apply
		fns[i] = fn.Fn{Name: f.Name, Apply: func(v value.V) value.V { *calls++; return apply(v) }}
	}
	return ost.New(s.Name, ord, fn.NewFinite(s.F.Name, fns))
}

// costCase is one of the compile benchmark's algebras, built through the
// ost constructors over counted leaves.
type costCase struct {
	name, expr string
	build      func(calls *int) *ost.OrderTransform
}

var costCases = []costCase{
	{"policy", "scoped(bw(4), delay(64,4))", func(calls *int) *ost.OrderTransform {
		return ost.Scoped(counted(baselib.Bandwidth(4), calls), counted(baselib.Delay(64, 4), calls))
	}},
	{"lex-3840", "lex(delay(255,3), hops(14))", func(calls *int) *ost.OrderTransform {
		return ost.Lex(counted(baselib.Delay(255, 3), calls), counted(baselib.HopCount(14), calls))
	}},
	{"scoped-2304", "scoped(bw(8), delay(255,4))", func(calls *int) *ost.OrderTransform {
		return ost.Scoped(counted(baselib.Bandwidth(8), calls), counted(baselib.Delay(255, 4), calls))
	}},
	{"query-8448", "lex(delay(255,3), hops(32))", func(calls *int) *ost.OrderTransform {
		return ost.Lex(counted(baselib.Delay(255, 3), calls), counted(baselib.HopCount(32), calls))
	}},
}

// leafCost is Σ over the leaves under t of F·N + N², each leaf counted
// at every occurrence (occurrences) or once (distinct).
func leafCost(t *ost.OrderTransform, seen map[*ost.OrderTransform]bool) (occurrences, distinct int) {
	rule, ops := t.Construction()
	if rule == ost.Leaf {
		n := t.Carrier().Size()
		c := t.F.Size()*n + n*n
		if !seen[t] {
			seen[t], distinct = true, c
		}
		return c, distinct
	}
	for _, op := range ops {
		o, d := leafCost(op, seen)
		occurrences, distinct = occurrences+o, distinct+d
	}
	return occurrences, distinct
}

// TestCompileCostBoundedByLeaves is the compile's counted contract: the
// value-level calls — arc function applications and order tests on the
// leaves — that New makes on each benchmark algebra are at most Σ over
// leaf occurrences of F·N + N² (9 070 for the policy product, whose
// root evaluated whole makes 212 550 root-level ones), and exactly that
// sum over distinct leaves, each built once per call: 4 535 for the
// policy product. The tables are the oracle's.
func TestCompileCostBoundedByLeaves(t *testing.T) {
	for _, c := range costCases {
		var calls int
		a := c.build(&calls)
		occurrences, distinct := leafCost(a, map[*ost.OrderTransform]bool{})
		calls = 0
		if _, err := compile.New(a); err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if calls > occurrences || calls != distinct {
			t.Errorf("%s: %d value-level calls, want %d (and at most %d)", c.expr, calls, distinct, occurrences)
		}
		if c.name == "policy" {
			if occurrences != 9070 || distinct != 4535 {
				t.Errorf("%s: leaf cost %d over occurrences, %d distinct; want 9070 and 4535",
					c.expr, occurrences, distinct)
			}
			calls = 0
			mustMatch(t, c.expr, a)
			if calls <= occurrences {
				t.Fatalf("%s: the oracle made only %d calls: the bound has no teeth", c.expr, calls)
			}
		}
	}
}

// BenchmarkCompile times New on the policy product, the two largest
// algebras near exec.AutoLimit and the query workloads' 8 448-element
// product past it, and reports value-calls/op: the leaf function
// applications and order tests each compile makes, a count fixed by the
// expression (scripts/ci.sh bounds the policy and query products').
func BenchmarkCompile(b *testing.B) {
	for _, c := range costCases {
		b.Run(c.name, func(b *testing.B) {
			var calls int
			a := c.build(&calls)
			calls = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compile.New(a); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(calls)/float64(b.N), "value-calls/op")
		})
	}
}
