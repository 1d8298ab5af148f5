package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// columnMatchesEntries asserts a flat column states exactly the routes of
// the value-level oracle: same routedness, same resolved weight, same
// ECMP next-hop sequence.
func columnMatchesEntries(t *testing.T, eng exec.Algebra, col *Column, entries []*Entry, tag string) {
	t.Helper()
	if len(col.Slots) != len(entries) {
		t.Fatalf("%s: %d slots vs %d entries", tag, len(col.Slots), len(entries))
	}
	for u := range entries {
		e := entries[u]
		s := col.Slots[u]
		if (e != nil) != s.Routed {
			t.Fatalf("%s node %d: routedness differs", tag, u)
		}
		if e == nil {
			continue
		}
		if w := eng.Value(s.W); w != e.Weight {
			t.Fatalf("%s node %d: weight %v vs %v", tag, u, w, e.Weight)
		}
		nh := col.NextHops(u)
		if len(nh) != len(e.NextHops) {
			t.Fatalf("%s node %d: ECMP %v vs %v", tag, u, nh, e.NextHops)
		}
		for i, v := range e.NextHops {
			if int(nh[i]) != v {
				t.Fatalf("%s node %d: ECMP %v vs %v", tag, u, nh, e.NextHops)
			}
		}
	}
}

// engines returns the dynamic backend and, when the algebra compiles
// (finite carrier), the table-compiled one.
func engines(t *testing.T, a *ost.OrderTransform) map[string]exec.Algebra {
	t.Helper()
	out := map[string]exec.Algebra{"dynamic": exec.NewDynamic(a)}
	if eng, err := exec.Compile(a); err == nil {
		out["compiled"] = eng
	}
	return out
}

// originFor picks a valid origin weight for an algebra: its order
// bottom when one exists, otherwise the first carrier element.
func originFor(a *ost.OrderTransform) value.V {
	if b, ok := a.Ord.Bot(); ok {
		return b
	}
	return a.Carrier().Elems[0]
}

// TestColumnDifferential holds the naive flat build and the paged build
// to the value-level oracle: across random algebras × GNP/ring/grid ×
// both engine backends, BuildDestColumn and BuildDestPaged must state
// exactly the routes BuildDestEngine computes.
func TestColumnDifferential(t *testing.T) {
	algebras := []string{
		"delay(16,3)",
		"hops(16)",
		"bw(8)",
		"lex(delay(8,2), hops(8))",
		"scoped(delay(8,2), hops(8))",
	}
	for _, src := range algebras {
		a := alg(t, src)
		for _, backend := range []string{"dynamic", "compiled"} {
			eng, ok := engines(t, a)[backend]
			if !ok {
				continue
			}
			r := rand.New(rand.NewSource(99))
			topos := map[string]*graph.Graph{
				"gnp":  graph.Random(r, 14, 0.25, graph.UniformLabels(a.F.Size())),
				"ring": graph.Ring(r, 12, graph.UniformLabels(a.F.Size())),
				"grid": graph.Grid(r, 4, 4, graph.UniformLabels(a.F.Size())),
			}
			org := originFor(a)
			for tname, g := range topos {
				tag := fmt.Sprintf("%s/%s/%s", src, backend, tname)
				ws := solve.NewWorkspace()
				for _, dest := range []int{0, g.N / 2} {
					entries, conv1, err := BuildDestEngine(eng, g, dest, org, ws)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					col, err := BuildDestColumn(eng, g, dest, org, ws)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if col.Converged != conv1 {
						t.Fatalf("%s dest %d: convergence differs", tag, dest)
					}
					columnMatchesEntries(t, eng, col, entries, tag)
					pc, err := BuildDestPaged(eng, g, dest, org, ws)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if pc.Converged != conv1 {
						t.Fatalf("%s dest %d: paged convergence differs", tag, dest)
					}
					columnMatchesEntries(t, eng, pc.Flatten(), entries, tag+" paged")
				}
			}
		}
	}
}

// TestDeltaColumnDifferential drives a toggle chain through
// DeltaDestPaged and checks each warm-started column against the naive
// flat build and the value-level oracle on the masked view, and that a
// delta step shares the pages it did not touch by pointer.
func TestDeltaColumnDifferential(t *testing.T) {
	for _, src := range []string{"delay(16,3)", "lex(delay(8,2), hops(8))"} {
		a := alg(t, src)
		for backend, eng := range engines(t, a) {
			r := rand.New(rand.NewSource(17))
			g := graph.Random(r, 140, 0.03, graph.UniformLabels(a.F.Size()))
			ws := solve.NewWorkspace()
			disabled := make([]bool, len(g.Arcs))
			org := originFor(a)
			prev, err := BuildDestPaged(eng, g.MaskArcs(disabled), 0, org, ws)
			if err != nil {
				t.Fatal(err)
			}
			usedDelta, shared := false, false
			for step := 0; step < 10; step++ {
				ai := r.Intn(len(g.Arcs))
				disabled[ai] = !disabled[ai]
				view := g.MaskArcs(disabled)
				toggles := []solve.ArcToggle{{Arc: ai, Down: disabled[ai]}}
				tag := fmt.Sprintf("%s/%s step %d", src, backend, step)

				col, st, ps, err := DeltaDestPaged(eng, view, disabled, 0, org, ws, prev, toggles)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				usedDelta = usedDelta || st.UsedDelta
				shared = shared || ps.Shared > 0

				scratch, err := BuildDestColumn(eng, view, 0, org, solve.NewWorkspace())
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if flat := col.Flatten(); !reflect.DeepEqual(flat, scratch) {
					t.Fatalf("%s: delta column diverges from the naive build\n got %+v\nwant %+v", tag, flat, scratch)
				}
				ent, conv, err := BuildDestEngine(eng, view, 0, org, nil)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if col.Converged != conv {
					t.Fatalf("%s: converged %v, oracle %v", tag, col.Converged, conv)
				}
				columnMatchesEntries(t, eng, col.Flatten(), ent, tag)
				prev = col
			}
			if !usedDelta || !shared {
				t.Fatalf("%s/%s: warm-start path engaged %v, shared an untouched page %v", src, backend, usedDelta, shared)
			}
		}
	}
}

// TestColumnFootprint pins the Bytes/Live gauges and the RIB adapters.
func TestColumnFootprint(t *testing.T) {
	a := alg(t, "delay(16,3)")
	eng := exec.NewDynamic(a)
	g := graph.Ring(rand.New(rand.NewSource(3)), 16, graph.UniformLabels(a.F.Size()))
	col, err := BuildDestPaged(eng, g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if col.Live() != 16 {
		t.Fatalf("Live = %d, want 16", col.Live())
	}
	if want := PageSize*entrySlotBytes + len(col.Pages[0].Pool)*4; col.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", col.Bytes(), want)
	}
	rb := FromColumns(eng, g, map[int]*PagedColumn{0: col})
	if rb.Column(0) != col || rb.Column(1) != nil {
		t.Fatal("Column accessor must return the adopted column, nil for an unknown destination")
	}
	e := rb.Lookup(5, 0)
	if e == nil || len(e.NextHops) == 0 {
		t.Fatalf("Lookup adapter = %+v", e)
	}
	if got := rb.ECMPWidth(5, 0); got != len(e.NextHops) {
		t.Fatalf("ECMPWidth = %d, want %d", got, len(e.NextHops))
	}
	if _, err := rb.Forward(5, 0); err != nil {
		t.Fatal(err)
	}
	// Lookup materialises what the value-level oracle computes.
	entries, _, err := BuildDestEngine(eng, g, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := range entries {
		if got := rb.Lookup(u, 0); !reflect.DeepEqual(got, entries[u]) {
			t.Fatalf("Lookup(%d, 0) = %+v, oracle %+v", u, got, entries[u])
		}
	}
}

// TestEntrySlotLayout pins the slot at 12 bytes — W and NhOff, a 16-bit
// NhLen and Routed — so a ColumnPage stays at 800 bytes, inside the
// 896-byte size class; a 16-byte slot put every page in the 1 152-byte
// one, on the leader, the follower and every page a swap clones.
func TestEntrySlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(EntrySlot{}); got != 12 {
		t.Fatalf("EntrySlot is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(ColumnPage{}); got != 800 {
		t.Fatalf("ColumnPage is %d bytes, want 800", got)
	}
}

// TestColumnBuildAllocs is the pointer-chasing regression guard: a
// column build on the compiled backend must stay within a handful of
// allocations (the column header, the slot arena, the pool and its
// growth) regardless of node count — one *Entry per node would blow
// this bound immediately.
func TestColumnBuildAllocs(t *testing.T) {
	a := alg(t, "lex(delay(8,2), hops(8))")
	eng, err := exec.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(5)), 256, 0.03, graph.UniformLabels(a.F.Size()))
	ws := solve.NewWorkspace()
	org := originFor(a)
	if _, err := BuildDestColumn(eng, g, 0, org, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildDestColumn(eng, g, 0, org, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("BuildDestColumn allocates %.0f objects per run, want ≤ 8", allocs)
	}
}

// BenchmarkColumnBuild is the column-build benchmark the CI allocs
// guard watches; -benchmem makes allocs/op visible.
func BenchmarkColumnBuild(b *testing.B) {
	a := alg(b, "lex(delay(8,2), hops(8))")
	eng, err := exec.Compile(a)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(5)), 1024, 0.008, graph.UniformLabels(a.F.Size()))
	ws := solve.NewWorkspace()
	org := originFor(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDestColumn(eng, g, 0, org, ws); err != nil {
			b.Fatal(err)
		}
	}
}
