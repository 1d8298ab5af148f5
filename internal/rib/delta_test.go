package rib

// Tests for the warm-start delta column rebuild and for the RIB access
// error paths (out-of-range nodes, missing destinations, unrouted
// sources) that the HTTP handlers lean on.

import (
	"reflect"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// TestForwardErrorPaths pins the Forward/ECMPWidth failure modes: each
// must fail (or report zero width) without panicking, and the errors
// must name what went wrong.
func TestForwardErrorPaths(t *testing.T) {
	a := alg(t, "delay(8,1)")
	// 1 → 0 routed; node 2 isolated.
	g := graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 0}})
	rb, err := Build(a, g, map[int]value.V{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		from int
		dest int
		want string
	}{
		{"unknown destination", 1, 2, "unknown destination"},
		{"negative node", -1, 0, "out of range"},
		{"node past the graph", 99, 0, "out of range"},
		{"unrouted source", 2, 0, "no route"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rb.Forward(tc.from, tc.dest)
			if err == nil {
				t.Fatalf("Forward(%d, %d) must fail", tc.from, tc.dest)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	for _, tc := range []struct{ node, dest int }{
		{1, 2}, {-1, 0}, {99, 0}, {2, 0},
	} {
		if w := rb.ECMPWidth(tc.node, tc.dest); w != 0 {
			t.Fatalf("ECMPWidth(%d, %d) = %d, want 0", tc.node, tc.dest, w)
		}
	}
	if w := rb.ECMPWidth(1, 0); w != 1 {
		t.Fatalf("routed ECMPWidth = %d, want 1", w)
	}
}

// TestDeltaLicensed pins the warm-start answer of the solver licence,
// including the split that motivates serve.WithDeltaProps: composite
// algebras carry their theorem-derived M/I judgements on the inference
// node, not on the order transform the execution engine exposes.
func TestDeltaLicensed(t *testing.T) {
	for _, tc := range []struct {
		src     string
		otGate  bool // no property set: the engine's order transform alone
		setGate bool // the inferred property set
	}{
		{"delay(8,2)", true, true},                   // M and I declared on the base OT
		{"bw(4)", true, true},                        // M only
		{"lex(bw(4), hops(8))", false, false},        // the non-monotone widest-shortest gadget
		{"scoped(delay(8,2), hops(8))", false, true}, // M via Theorem 6, invisible on the OT
		{"lex(delay(16,3), hops(8))", false, true},   // I via Theorem 5, invisible on the OT
	} {
		a, err := core.InferString(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		eng := exec.NewDynamic(a.OT)
		if got := solve.NewLicence(eng, nil).WarmStartAllowed(); got != tc.otGate {
			t.Errorf("%s: warm start on the order transform = %v, want %v", tc.src, got, tc.otGate)
		}
		if got := solve.NewLicence(eng, a.Props).WarmStartAllowed(); got != tc.setGate {
			t.Errorf("%s: warm start on the inferred set = %v, want %v", tc.src, got, tc.setGate)
		}
	}
}

// TestDeltaDestPagedFallbacks pins the unusable-warm-start cases: each
// must quietly rebuild from scratch with zero delta stats, every page
// cloned, and a column equal to the value-level oracle; a bad
// destination must fail loudly.
func TestDeltaDestPagedFallbacks(t *testing.T) {
	a := alg(t, "delay(8,2)")
	g := graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 1}, {From: 2, To: 1, Label: 1}})
	eng := exec.For(a, 0)
	disabled := make([]bool, len(g.Arcs))
	want, _, err := BuildDestEngine(eng, g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := BuildDestPaged(eng, g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DeltaDestPaged(eng, g, disabled, 9, 0, nil, good, nil); err == nil {
		t.Fatal("out-of-range destination must fail")
	}
	short, err := BuildDestPaged(eng, graph.MustNew(2, []graph.Arc{{From: 1, To: 0, Label: 1}}), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	unconverged := *good
	unconverged.Converged = false
	unrouted, err := good.Patch(true, []SlotPatch{{Node: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prev *PagedColumn
	}{
		{"nil previous column", nil},
		{"wrong-length column", short},
		{"unconverged column", &unconverged},
		{"destination missing from column", unrouted},
	} {
		got, st, ps, err := DeltaDestPaged(eng, g, disabled, 0, 0, nil, tc.prev, nil)
		if err != nil || !got.Converged {
			t.Fatalf("%s: converged=%v err=%v", tc.name, got != nil && got.Converged, err)
		}
		if st.UsedDelta || st.Frontier != 0 || len(st.Touched) != 0 || ps.Cloned != len(got.Pages) {
			t.Fatalf("%s: fallback must report zero delta stats and clone every page, got %+v, %d cloned", tc.name, st, ps.Cloned)
		}
		for u := range want {
			if e := got.Entry(eng, u); !reflect.DeepEqual(e, want[u]) {
				t.Fatalf("%s: node %d entry %+v, oracle %+v", tc.name, u, e, want[u])
			}
		}
	}
}
