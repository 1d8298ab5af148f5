package graph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// rowAddr identifies a row's backing array (nil for an empty row).
func rowAddr(row []Hop) *Hop {
	if len(row) == 0 {
		return nil
	}
	return &row[0]
}

// TestViewChains: along random WithArcsToggled chains — started from the
// base, from a dense MaskArcs view, and driven back to the empty mask —
// every view's four row accessors equal a dense MaskArcs of the same
// mask and a naive filter of Arcs (maskEqual; naiveRows emits an arc's
// index and its Hop together, so packed rows line up with arc rows entry
// for entry), rows the batch did not touch are shared with the parent
// view by pointer, and RevIn is the unmasked base. A last chain on a
// 1024-node ring does the same with colliding and saturated row filters.
func TestViewChains(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		var g *Graph
		switch trial % 3 {
		case 0:
			g = Random(r, 4+r.Intn(10), 0.4, UniformLabels(5))
		case 1:
			g = ScaleFree(r, 8+r.Intn(20), 2, UniformLabels(5))
		default:
			g = Grid(r, 2+r.Intn(3), 2+r.Intn(4), UniformLabels(5))
		}
		m := len(g.Arcs)
		disabled := make([]bool, m)
		view := g
		if trial%2 == 1 {
			for i := range disabled {
				disabled[i] = r.Intn(4) == 0
			}
			disabled[r.Intn(m)] = true
			view = g.MaskArcs(disabled) // dense: the first batch takes the mask-sweep path
		}
		for step := 0; step < 30; step++ {
			var ais []int
			if step == 20 {
				// Restore to empty: raise every failed arc in one batch.
				for i, down := range disabled {
					if down {
						ais = append(ais, i)
					}
				}
			} else {
				ais = make([]int, 1+r.Intn(4))
				for i := range ais {
					ais[i] = r.Intn(m)
				}
			}
			touchedOut, touchedIn := map[int]bool{}, map[int]bool{}
			for _, ai := range ais {
				disabled[ai] = !disabled[ai]
				touchedOut[g.Arcs[ai].From] = true
				touchedIn[g.Arcs[ai].To] = true
			}
			parent := view
			view = parent.WithArcsToggled(ais, disabled)
			maskEqual(t, g, view, disabled)
			if step == 20 && (len(view.outOver) != 0 || len(view.inOver) != 0) {
				t.Fatalf("trial %d: restored mask left %d+%d overlay rows", trial, len(view.outOver), len(view.inOver))
			}
			if view.RevIn() != g {
				t.Fatalf("trial %d step %d: RevIn is not the unmasked base", trial, step)
			}
			overlayParent := parent == g || parent.outOver != nil
			for u := 0; u < g.N; u++ {
				if !slices.Equal(view.RevIn().In(u), g.In(u)) {
					t.Fatalf("trial %d step %d: RevIn().In(%d) differs from the base row", trial, step, u)
				}
				if !overlayParent {
					continue
				}
				if !touchedOut[u] && rowAddr(view.OutHops(u)) != rowAddr(parent.OutHops(u)) {
					t.Fatalf("trial %d step %d: untouched out-row %d was copied", trial, step, u)
				}
				if !touchedIn[u] && rowAddr(view.InHops(u)) != rowAddr(parent.InHops(u)) {
					t.Fatalf("trial %d step %d: untouched in-row %d was copied", trial, step, u)
				}
			}
		}
	}

	// Past the row filter's exactness: nodes 256 apart share a filter
	// bit, so a view with one of them overlaid must still serve the other
	// from the base, a restore must hand a row back to the base while its
	// bit stays set for its neighbour, and with more overlay rows than
	// the filter has bits every accessor is back to probing — all of it
	// equal to the dense mask.
	g := Ring(r, 1024, UniformLabels(5)) // arc 2u is u→u+1, arc 2u+1 its reverse
	disabled := make([]bool, len(g.Arcs))
	toggle := func(view *Graph, ais ...int) *Graph {
		for _, ai := range ais {
			disabled[ai] = !disabled[ai]
		}
		view = view.WithArcsToggled(ais, disabled)
		maskEqual(t, g, view, disabled)
		return view
	}
	const u = 7
	view := toggle(g, 2*u)
	for _, v := range []int{u + 256, u + 512, u + 768} {
		if !view.outMay.may(v) {
			t.Fatalf("node %d does not collide with %d in the filter; the test lost its teeth", v, u)
		}
		if rowAddr(view.OutHops(v)) != rowAddr(g.OutHops(v)) {
			t.Fatalf("node %d collides with overlaid node %d and must read the base row", v, u)
		}
	}
	view = toggle(view, 2*(u+256), 2*u) // u restored, its bit kept alive by u+256
	if !view.outMay.may(u) || rowAddr(view.OutHops(u)) != rowAddr(g.OutHops(u)) {
		t.Fatalf("restored node %d must read the base row behind a set filter bit", u)
	}
	var storm []int
	for v := 0; v < 640; v += 2 {
		if !disabled[2*v] {
			storm = append(storm, 2*v)
		}
	}
	view = toggle(view, storm...)
	if len(view.outOver) <= 300 || len(view.inOver) <= 300 {
		t.Fatalf("%d+%d overlay rows, want more than 300 each", len(view.outOver), len(view.inOver))
	}
	view = toggle(view, 2*3, 2*5+1) // one more small batch on the saturated view
	var all []int
	for ai, down := range disabled {
		if down {
			all = append(all, ai)
		}
	}
	view = toggle(view, all...)
	if len(view.outOver) != 0 || len(view.inOver) != 0 || view.outMay != (rowFilter{}) || view.inMay != (rowFilter{}) {
		t.Fatalf("restored mask left %d+%d overlay rows or a set filter bit", len(view.outOver), len(view.inOver))
	}
}

// TestViewConcurrentReaders: views are immutable, so readers may walk a
// whole chain of them while a writer keeps deriving successors. Run
// under -race.
func TestViewConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := ScaleFree(r, 200, 2, UniformLabels(3))
	disabled := make([]bool, len(g.Arcs))
	type gen struct {
		view *Graph
		mask []bool
	}
	views := make(chan gen, 4) // small: readers keep pace with the writer
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				out, _, outHops, _ := naiveRows(g, v.mask)
				for u := 0; u < g.N; u++ {
					if !slices.Equal(v.view.Out(u), out[u]) || !slices.Equal(v.view.OutHops(u), outHops[u]) {
						t.Errorf("reader saw a torn row at node %d", u)
						return
					}
					_ = v.view.RevIn().InHops(u)
				}
			}
		}()
	}
	view := g
	for step := 0; step < 200; step++ {
		ais := []int{r.Intn(len(g.Arcs)), r.Intn(len(g.Arcs))}
		for _, ai := range ais {
			disabled[ai] = !disabled[ai]
		}
		view = view.WithArcsToggled(ais, disabled)
		views <- gen{view, slices.Clone(disabled)}
	}
	close(views)
	wg.Wait()
}

// sparseArcs builds a deterministic n-node, 4n-arc topology of constant
// degree (a bidirectional ring plus bidirectional chords).
func sparseArcs(n int) []Arc {
	arcs := make([]Arc, 0, 4*n)
	for u := 0; u < n; u++ {
		v, c := (u+1)%n, (u+n/2+u%7)%n
		if c == u || c == v {
			c = (u + 2) % n
		}
		arcs = append(arcs, Arc{u, v, u % 3}, Arc{v, u, u % 3}, Arc{u, c, 1}, Arc{c, u, 1})
	}
	return arcs
}

// TestGraphIndexBytes guards the index footprint at benchmark scale:
// both packed directions together stay within 24 B/arc + 8 B/node (the
// [][]int rows plus the separate reverse CSR they replace cost
// 20 B/arc + 52 B/node), and RevIn adds nothing.
func TestGraphIndexBytes(t *testing.T) {
	const n = 100_000
	arcs := sparseArcs(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := MustNew(n, arcs)
	g.RevIn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// Six arrays, each rounded up to the allocator's 8 KiB page.
	limit := int64(24*len(arcs) + 8*n + 6*8192)
	if got > limit {
		t.Fatalf("index of %d nodes / %d arcs holds %d bytes live, limit %d", n, len(arcs), got, limit)
	}
	t.Logf("index: %d bytes live (limit %d)", got, limit)
	runtime.KeepAlive(g)
}

// TestWithArcsToggledAllocs: a 4-arc batch on a view carrying 64 live
// failures allocates the view, its two overlay maps and the refiltered
// endpoint rows — O(batch endpoints' degree). Neither the allocation
// count nor the bytes may grow with N.
func TestWithArcsToggledAllocs(t *testing.T) {
	measure := func(n int) (allocs float64, bytes uint64) {
		g := MustNew(n, sparseArcs(n))
		disabled := make([]bool, len(g.Arcs))
		var live []int
		for i := 0; i < 64; i++ {
			live = append(live, 40*i+3)
			disabled[40*i+3] = true
		}
		view := g.WithArcsToggled(live, disabled)
		batch := []int{5001, 5202, 5403, 5604}
		flip := func() {
			for _, ai := range batch {
				disabled[ai] = !disabled[ai]
			}
		}
		var sink *Graph
		allocs = testing.AllocsPerRun(50, func() {
			flip()
			sink = view.WithArcsToggled(batch, disabled)
		})
		const runs = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			flip()
			sink = view.WithArcsToggled(batch, disabled)
		}
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(sink)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	aSmall, bSmall := measure(8_000)
	aLarge, bLarge := measure(64_000)
	if aLarge > aSmall+1 || bLarge > bSmall+bSmall/8 {
		t.Fatalf("toggle cost grows with N: %.1f allocs / %d B at 8k nodes, %.1f allocs / %d B at 64k", aSmall, bSmall, aLarge, bLarge)
	}
	// The view, plus per batch endpoint row a header and two exactly
	// sized arrays; the two map copies account for the rest.
	const rows = 8
	var sink map[int]*overRow
	mapAllocs := testing.AllocsPerRun(50, func() {
		m := make(map[int]*overRow, 64+4)
		for i := 0; i < 64; i++ {
			m[40*i] = nil
		}
		sink = m
	})
	runtime.KeepAlive(sink)
	if limit := 1 + 3*rows + 2*mapAllocs; aLarge > limit {
		t.Fatalf("4-arc batch allocates %.1f times, limit %.1f (two map copies of %.1f each)", aLarge, limit, mapAllocs)
	}
	t.Logf("4-arc batch over 64 live failures: %.1f allocs, %d B", aLarge, bLarge)

	// Reading rows — base or overlay — allocates nothing.
	g := MustNew(64, sparseArcs(64))
	disabled := make([]bool, len(g.Arcs))
	disabled[3], disabled[40] = true, true
	view := g.WithArcsToggled([]int{3, 40}, disabled)
	var hops int
	if a := testing.AllocsPerRun(20, func() {
		for u := 0; u < g.N; u++ {
			hops += len(view.OutHops(u)) + len(view.InHops(u)) + len(view.Out(u)) + len(view.In(u)) + len(g.OutHops(u))
		}
	}); a != 0 {
		t.Fatalf("row accessors allocate %.1f times per sweep", a)
	}
}

// TestNewRejectsUnindexable: labels index an algebra's function set and
// live in int32 rows, so New refuses negative labels and labels past
// MaxInt32, and CheckLabels names the first arc whose label the algebra
// at hand does not have — or says that a sampled function set (size -1)
// gives labels no meaning at all.
func TestNewRejectsUnindexable(t *testing.T) {
	pastInt32 := math.MaxInt32
	pastInt32++ // computed at run time: the constant does not fit a 32-bit int
	for _, tc := range []struct {
		name  string
		label int
		ok    bool
	}{
		{"zero", 0, true},
		{"largest int32", math.MaxInt32, true},
		{"negative", -1, false},
		{"most negative", math.MinInt, false},
		{"past int32", pastInt32, false},
	} {
		_, err := New(3, []Arc{{1, 0, 0}, {2, 1, tc.label}})
		if (err == nil) != tc.ok {
			t.Errorf("%s label %d: err = %v, want ok=%v", tc.name, tc.label, err, tc.ok)
		}
	}
	g := MustNew(3, []Arc{{1, 0, 0}, {2, 1, 99}, {0, 2, 100}})
	for _, tc := range []struct {
		numFns int
		want   string // "" = accepted
	}{
		{-1, "not enumerable"}, {101, ""}, {100, "arc 2 (0→2) label 100"}, {1, "arc 1 (2→1) label 99"}, {0, "arc 0 (1→0) label 0"},
	} {
		err := g.CheckLabels(tc.numFns)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("CheckLabels(%d) = %v, want nil", tc.numFns, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("CheckLabels(%d) = %v, want an error naming %q", tc.numFns, err, tc.want)
		}
	}
}
