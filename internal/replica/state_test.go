package replica

import (
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"metarouting/internal/rib"
	"metarouting/internal/solve"
)

func bootstrap(t *testing.T) *State {
	t.Helper()
	st, err := ApplyFull(testFull())
	if err != nil {
		t.Fatalf("ApplyFull: %v", err)
	}
	return st
}

func TestApplyFull(t *testing.T) {
	st := bootstrap(t)
	if st.Version != 7 || st.Nodes != 4 || len(st.Cols) != 2 {
		t.Fatalf("state = v%d nodes %d cols %d", st.Version, st.Nodes, len(st.Cols))
	}
	if st.WeightName(1) != "(3, 2)" || st.WeightName(9) != "?" || st.WeightName(-1) != "?" {
		t.Fatalf("weight names wrong: %q %q %q", st.WeightName(1), st.WeightName(9), st.WeightName(-1))
	}
}

func TestApplyFullRejectsDuplicates(t *testing.T) {
	f := testFull()
	f.Columns = append(f.Columns, f.Columns[0])
	if _, err := ApplyFull(f); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestApplyDeltaMergesDiff(t *testing.T) {
	st := bootstrap(t)
	next, err := ApplyDelta(st, testDelta())
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if next.Version != 8 {
		t.Fatalf("version = %d, want 8", next.Version)
	}
	// Toggles: arc 5 down, arc 1 up.
	if !next.Disabled[5] || next.Disabled[1] {
		t.Fatalf("disabled mask not toggled: %v", next.Disabled)
	}
	// Scratch replaced column 0 wholesale.
	want0 := mkColumn(0, true, [][]int32{{0}, nil, {3, 0, 3}, {1, 0}})
	sameColumn(t, "scratch column", next.Cols[0], want0)
	// Diff rewrote column 3: node 0 gains {w 3, hops 1 2}, node 2 stays
	// unrouted (it already was), nodes 1 and 3 transplant, and the page
	// pool is rebuilt in canonical order — byte-identical to a fresh build.
	want3 := mkColumn(3, true, [][]int32{{3, 1, 2}, {2, 3}, nil, {0}})
	sameColumn(t, "diffed column", next.Cols[3], want3)
	// Names tail appended past the bootstrap's table.
	if got := next.WeightName(3); got != "(4, 4)" {
		t.Fatalf("appended name = %q", got)
	}
	// The base state must be untouched (immutable snapshots).
	if _, routed := st.Cols[3].Route(0); st.Version != 7 || st.Disabled[5] || routed {
		t.Fatal("ApplyDelta mutated its input state")
	}
}

func TestApplyDeltaStaleSkips(t *testing.T) {
	st := bootstrap(t)
	d := testDelta()
	d.FromVersion, d.Version = 6, 7
	next, err := ApplyDelta(st, d)
	if err != nil || next != nil {
		t.Fatalf("stale delta: next=%v err=%v, want nil/nil", next, err)
	}
}

func TestApplyDeltaRejectsGapAndFingerprint(t *testing.T) {
	st := bootstrap(t)
	gap := testDelta()
	gap.FromVersion, gap.Version = 9, 10
	if _, err := ApplyDelta(st, gap); err == nil {
		t.Fatal("version gap accepted")
	}
	fp := testDelta()
	fp.Fingerprint++
	if _, err := ApplyDelta(st, fp); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	if _, err := ApplyDelta(nil, testDelta()); err == nil {
		t.Fatal("delta before bootstrap accepted")
	}
}

func TestApplyDeltaOverlappingNamesTail(t *testing.T) {
	// A follower that bootstrapped from a full snapshot already carrying
	// names the delta tail repeats must append only the new suffix.
	st := bootstrap(t)
	d := testDelta()
	d.NameBase = 2
	d.NamesTail = []string{"inf", "(4, 4)"} // index 2 already known
	next, err := ApplyDelta(st, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	want := []string{"(0, 1)", "(3, 2)", "inf", "(4, 4)"}
	if !reflect.DeepEqual(next.Names, want) {
		t.Fatalf("names = %v, want %v", next.Names, want)
	}
}

func TestApplyDeltaSharesUntouchedColumns(t *testing.T) {
	st := bootstrap(t)
	d := &Delta{
		FromVersion: 7, Version: 8, Fingerprint: st.Fingerprint,
		Toggles:  []solve.ArcToggle{{Arc: 0, Down: true}},
		NameBase: len(st.Names),
		Diffs: []ColumnDiff{{Dest: 0, Converged: true, Changes: []SlotChange{
			{Node: 1, Routed: true, W: 2, NextHop: []int32{0}},
		}}},
	}
	next, err := ApplyDelta(st, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if next.Cols[3] != st.Cols[3] {
		t.Fatal("untouched column was copied, not shared")
	}
	if next.Cols[0] == st.Cols[0] {
		t.Fatal("diffed column was shared, not rebuilt")
	}
}

func TestApplyDeltaRejectsBadDiffs(t *testing.T) {
	st := bootstrap(t)
	unknown := testDelta()
	unknown.Diffs[0].Dest = 2 // no such column
	if _, err := ApplyDelta(st, unknown); err == nil {
		t.Fatal("diff for unknown destination accepted")
	}
	oob := testDelta()
	oob.Diffs[0].Changes[1].Node = 99
	if _, err := ApplyDelta(st, oob); err == nil {
		t.Fatal("out-of-range change node accepted")
	}
	badTog := testDelta()
	badTog.Toggles[0].Arc = len(st.Disabled)
	if _, err := ApplyDelta(st, badTog); err == nil {
		t.Fatal("out-of-range toggle arc accepted")
	}
	badScr := testDelta()
	badScr.Scratch[0] = mkColumn(2, true, [][]int32{{0}, nil, nil, nil}).Paged()
	if _, err := ApplyDelta(st, badScr); err == nil {
		t.Fatal("scratch column for unknown destination accepted")
	}
	// Next hops are only range-checkable where the node count is known:
	// here. Each of these decodes (CRC-valid) and, applied unchecked,
	// would index out of range — or walk a hop that is not there — on the
	// next Forward.
	for name, ch := range map[string]SlotChange{
		"next hop ≥ nodes":          {Node: 0, Routed: true, W: 3, NextHop: []int32{int32(st.Nodes)}},
		"negative next hop":         {Node: 0, Routed: true, W: 3, NextHop: []int32{1, -1}},
		"routed without a next hop": {Node: 0, Routed: true, W: 3},
		"next hops at destination":  {Node: 3, Routed: true, W: 0, NextHop: []int32{1}},
	} {
		bad := testDelta()
		bad.Diffs[0].Changes = []SlotChange{ch}
		rec, err := DecodeRecord(EncodeDelta(bad))
		if err != nil {
			t.Fatalf("%s: the wire codec cannot know the node count, yet rejected: %v", name, err)
		}
		if _, err := ApplyDelta(st, rec.Delta); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// sameColumn compares a follower's paged column against the expected
// flat column on everything that is replicated: destination,
// convergence, slots, pool, and the cached live/byte totals.
func sameColumn(t *testing.T, label string, got *rib.PagedColumn, want *rib.Column) {
	t.Helper()
	if flat := got.Flatten(); flat.Dest != want.Dest || flat.Converged != want.Converged ||
		!reflect.DeepEqual(flat.Slots, want.Slots) || !reflect.DeepEqual(flat.Pool, want.Pool) {
		t.Fatalf("%s:\n got %+v\nwant %+v", label, flat, want)
	}
	if fresh := want.Paged(); got.Live() != fresh.Live() || got.Bytes() != fresh.Bytes() {
		t.Fatalf("%s: totals live %d bytes %d, fresh paging has %d/%d", label,
			got.Live(), got.Bytes(), fresh.Live(), fresh.Bytes())
	}
}

// chainState bootstraps a one-column state over n nodes where node u
// forwards to u-1 toward destination 0 (every third node also lists
// u-2 as an ECMP alternate), with arcs disabled-mask bits.
func chainState(t testing.TB, n, arcs int) *State {
	t.Helper()
	routes := make([][]int32, n)
	routes[0] = []int32{0}
	for u := 1; u < n; u++ {
		routes[u] = []int32{int32(u % 7), int32(u - 1)}
		if u%3 == 0 && u >= 2 {
			routes[u] = append(routes[u], int32(u-2))
		}
	}
	st, err := ApplyFull(&Full{Version: 1, Fingerprint: 9, Nodes: n, Disabled: make([]bool, arcs),
		Names: []string{"0", "1", "2", "3", "4", "5", "6"}, Columns: []*rib.PagedColumn{mkColumn(0, true, routes).Paged()}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// chainDelta re-weights the given nodes (ascending) of chainState's
// column, version from→from+1.
func chainDelta(st *State, nodes ...int) *Delta {
	diff := ColumnDiff{Dest: 0, Converged: true}
	for _, u := range nodes {
		diff.Changes = append(diff.Changes, SlotChange{Node: u, Routed: true, W: int32((u + int(st.Version)) % 7), NextHop: []int32{int32(u - 1)}})
	}
	return &Delta{FromVersion: st.Version, Version: st.Version + 1, Fingerprint: st.Fingerprint,
		Toggles: []solve.ArcToggle{{Arc: 1, Down: st.Version%2 == 1}}, NameBase: len(st.Names), Diffs: []ColumnDiff{diff}}
}

// TestApplyDeltaSharesUntouchedPages is the copy-on-write assertion:
// after a delta, exactly the pages holding a changed slot are fresh and
// every other page is the predecessor's, by pointer — and the patched
// column still equals a from-scratch paging of the same routes.
func TestApplyDeltaSharesUntouchedPages(t *testing.T) {
	const n = 5*rib.PageSize + 17 // partial last page
	st := chainState(t, n, 8)
	// Pages 0 (two slots), 2 (its last slot) and 5 (the partial page).
	d := chainDelta(st, 3, 9, 3*rib.PageSize-1, n-1)
	next, err := ApplyDelta(st, d)
	if err != nil {
		t.Fatal(err)
	}
	dirty := map[int]bool{}
	for _, ch := range d.Diffs[0].Changes {
		dirty[ch.Node>>rib.PageShift] = true
	}
	prev, got := st.Cols[0], next.Cols[0]
	for pi := range got.Pages {
		if cloned := got.Pages[pi] != prev.Pages[pi]; cloned != dirty[pi] {
			t.Fatalf("page %d: cloned=%v, holds a changed slot=%v", pi, cloned, dirty[pi])
		}
	}
	sameColumn(t, "patched column", got, mkColumnFromFlat(prev.Flatten(), d.Diffs[0].Changes))
}

// mkColumnFromFlat rebuilds base with the given changes through the
// naive whole-column re-lay the follower used to run — the oracle the
// page patch is checked against.
func mkColumnFromFlat(base *rib.Column, changes []SlotChange) *rib.Column {
	routes := make([][]int32, len(base.Slots))
	for u, s := range base.Slots {
		if s.Routed {
			routes[u] = append([]int32{s.W}, base.Pool[s.NhOff:s.NhOff+s.NhLen]...)
		}
	}
	for _, ch := range changes {
		routes[ch.Node] = nil
		if ch.Routed {
			routes[ch.Node] = append([]int32{ch.W}, ch.NextHop...)
		}
	}
	return mkColumn(base.Dest, base.Converged, routes)
}

// TestApplyDeltaAllocs pins ApplyDelta to O(changed pages): on a
// 16k-node column a small diff may allocate the state, the disabled
// mask, the column map and header, one page-table copy, and a page plus
// a pool per cloned page — in objects and in bytes. A return to any
// whole-column copy (256 KB of slots here) breaks the byte bound.
func TestApplyDeltaAllocs(t *testing.T) {
	const n, arcs = 16384, 4096
	st := chainState(t, n, arcs)
	d := chainDelta(st, 70, 71, 5000, 5001, 9000, 16000)
	const cloned = 4
	apply := func() {
		if _, err := ApplyDelta(st, d); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, apply); allocs > 8+2*cloned {
		t.Fatalf("ApplyDelta allocates %.0f objects for %d cloned pages, want ≤ %d", allocs, cloned, 8+2*cloned)
	}
	var before, after runtime.MemStats
	const rounds = 50
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		apply()
	}
	runtime.ReadMemStats(&after)
	pages := (n + rib.PageSize - 1) / rib.PageSize
	perApply := (after.TotalAlloc - before.TotalAlloc) / rounds
	if limit := uint64(arcs + 8*pages + 2048*cloned + 2048); perApply > limit {
		t.Fatalf("ApplyDelta allocates %d B per apply (%d cloned pages of %d), want ≤ %d", perApply, cloned, pages, limit)
	}
}

// TestStateChecksumMatchesPackageChecksum: one checksum, whatever the
// layout — the paged state digests to the value the flat columns of the
// record it was built from do, which is the CRC of their concatenated
// wire encoding as the flat-arena encoder wrote it (the pre-streaming
// definition).
func TestStateChecksumMatchesPackageChecksum(t *testing.T) {
	f := testFull()
	st := bootstrap(t)
	flat := map[int]*rib.Column{}
	var w wbuf
	w.bits(f.Disabled)
	for _, c := range flattened(f.Columns) { // ascending by destination
		flat[c.Dest] = c
		oracleColumn(&w, c)
	}
	if got, want := st.Checksum(), crc32.ChecksumIEEE(w.b); got != want || Checksum(f.Disabled, flat) != want {
		t.Fatalf("checksum: state %08x, flat columns %08x, want %08x", got, Checksum(f.Disabled, flat), want)
	}
}
