package rib

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/value"
)

// comparatorNewPrefixTable and comparatorBuildPrefixTable are the table
// build as it stood before the integer sorts: a map over prefixes for the
// duplicate check and cmp.Or comparators for both orders. They are the
// oracle TestPrefixTableMatchesComparatorBuild holds the packed-key build
// to.
func comparatorNewPrefixTable(announced []PrefixOrigin) (*PrefixTable, error) {
	if len(announced) == 0 {
		return nil, fmt.Errorf("rib: empty prefix announcement set")
	}
	byPrefix := make(map[Prefix]PrefixOrigin, len(announced))
	nodeOrigin := make(map[int]value.V)
	ordered := make([]PrefixOrigin, 0, len(announced))
	for _, po := range announced {
		po.Prefix = MakePrefix(po.Prefix.Addr, po.Prefix.Len)
		if prev, ok := byPrefix[po.Prefix]; ok {
			if prev.Node != po.Node || prev.Origin != po.Origin {
				return nil, fmt.Errorf("rib: prefix %v announced twice with conflicting anchors", po.Prefix)
			}
			continue
		}
		if o, ok := nodeOrigin[po.Node]; ok && o != po.Origin {
			return nil, fmt.Errorf("rib: node %d originates conflicting weights", po.Node)
		}
		nodeOrigin[po.Node] = po.Origin
		byPrefix[po.Prefix] = po
		ordered = append(ordered, po)
	}
	slices.SortFunc(ordered, func(a, b PrefixOrigin) int {
		return cmp.Or(cmp.Compare(a.Prefix.Len, b.Prefix.Len), cmp.Compare(a.Prefix.Addr, b.Prefix.Addr))
	})
	return comparatorBuildPrefixTable(ordered, func(i, c int32) bool {
		return c < 0 || ordered[c].Node != ordered[i].Node || ordered[c].Origin != ordered[i].Origin
	}), nil
}

func comparatorBuildPrefixTable(ps []PrefixOrigin, keep func(i, cover int32) bool) *PrefixTable {
	order := make([]int32, len(ps))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { // position breaks ties: repeats in a restored set
		return cmp.Or(cmp.Compare(ps[i].Prefix.Addr, ps[j].Prefix.Addr), cmp.Compare(ps[i].Prefix.Len, ps[j].Prefix.Len), cmp.Compare(i, j))
	})
	// Positions in ps, -1 none, until the renumbering below: at[r] is
	// range r's deepest covering kept prefix, up[i] the longest kept
	// strict coverer of ps[i], col[i] 0 (kept) or -1. The stack's -1
	// sentinel is never popped.
	pt, at := &PrefixTable{}, []int32(nil)
	stack, up, col := []int32{-1}, make([]int32, len(ps)), make([]int32, len(ps))
	cur := uint64(0)
	top := func() int32 { return stack[len(stack)-1] }
	end := func(i int32) uint64 { return uint64(ps[i].Prefix.Addr) + 1<<(32-ps[i].Prefix.Len) }
	cut := func(to uint64) { // closes [cur, to) as one range under the top
		if cur < to {
			pt.starts, at, cur = append(pt.starts, uint32(cur)), append(at, top()), to
		}
	}
	pop := func() { cut(end(top())); stack = stack[:len(stack)-1] }
	for _, i := range order {
		for len(stack) > 1 && end(top()) <= uint64(ps[i].Prefix.Addr) {
			pop()
		}
		if up[i], col[i] = top(), -1; keep == nil || keep(i, up[i]) {
			cut(uint64(ps[i].Prefix.Addr))
			stack, col[i] = append(stack, i), 0
		}
	}
	for len(stack) > 1 {
		pop()
	}
	cut(1 << 32)

	pt.ranges = make([]lpmHit, len(at))
	for i, po := range ps {
		if col[i] < 0 {
			pt.suppressed = append(pt.suppressed, po)
			continue
		}
		col[i] = int32(len(pt.kept))
		pt.kept = append(pt.kept, po)
	}
	hit := func(i int32) lpmHit {
		if i < 0 {
			return lpmHit{col: -1, node: -1}
		}
		return lpmHit{col: col[i], node: int32(ps[i].Node), len: ps[i].Prefix.Len}
	}
	for r, i := range at {
		pt.ranges[r] = hit(i)
	}
	pt.cover = make([]lpmHit, len(pt.kept))
	for i, c := range col {
		if c >= 0 {
			pt.cover[c] = hit(up[i])
		}
	}
	return pt
}

// samePrefixTables reports the first field in which two tables differ.
func samePrefixTables(a, b *PrefixTable) string {
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"kept", a.kept, b.kept}, {"suppressed", a.suppressed, b.suppressed},
		{"starts", a.starts, b.starts}, {"ranges", a.ranges, b.ranges}, {"cover", a.cover, b.cover},
	} {
		if !reflect.DeepEqual(f.x, f.y) {
			return f.name
		}
	}
	return ""
}

// TestPrefixTableMatchesComparatorBuild holds the packed-key build to the
// comparator build it replaced, on 400 random announcement sets: covering
// chains, repeated prefixes (the same announcement again, and the same
// prefix unmasked), sets whose repeats or anchors conflict, which must
// fail with the same error, and restored copies with a kept prefix
// repeated. Kept, Suppressed, the interval index and the cover links must
// be equal, and so must longest match on random addresses and prefixes.
func TestPrefixTableMatchesComparatorBuild(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for set := 0; set < 400; set++ {
		announced := randomAnnouncements(r, 1+r.Intn(150), 1+r.Intn(6))
		for i, n := 0, r.Intn(20); i < n; i++ { // repeats, some unmasked
			po := announced[r.Intn(len(announced))]
			if r.Intn(2) == 0 && po.Prefix.Len < 32 {
				po.Prefix.Addr |= r.Uint32() &^ mask(po.Prefix.Len)
			}
			announced = append(announced, po)
		}
		switch r.Intn(8) {
		case 0: // a repeat with another anchor
			po := announced[r.Intn(len(announced))]
			po.Node++
			announced = append(announced, po)
		case 1: // an anchor with a second origin
			po := announced[r.Intn(len(announced))]
			po.Prefix, po.Origin = MakePrefix(r.Uint32(), 32), value.V(7)
			announced = append(announced, po)
		}
		r.Shuffle(len(announced), func(i, j int) { announced[i], announced[j] = announced[j], announced[i] })
		tag := fmt.Sprintf("set %d (%d announcements)", set, len(announced))
		got, err := NewPrefixTable(announced)
		want, werr := comparatorNewPrefixTable(announced)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, comparator build %v", tag, err, werr)
		}
		if err != nil {
			continue
		}
		if f := samePrefixTables(got, want); f != "" {
			t.Fatalf("%s: %s differs from the comparator build", tag, f)
		}
		kept := slices.Clone(got.Kept())
		kept = append(kept, kept[r.Intn(len(kept))])
		restored, wantRestored := RestorePrefixTable(kept, got.Suppressed()), comparatorBuildPrefixTable(kept, nil)
		wantRestored.suppressed = slices.Clone(got.Suppressed())
		if f := samePrefixTables(restored, wantRestored); f != "" {
			t.Fatalf("%s restored with a repeat: %s differs from the comparator build", tag, f)
		}
		for q := 0; q < 64; q++ {
			addr := r.Uint32()
			if q%2 == 0 {
				p := kept[r.Intn(len(kept))].Prefix
				addr = p.Addr | r.Uint32()&^mask(p.Len)
			}
			g, gok := got.Match(addr)
			w, wok := want.Match(addr)
			if g != w || gok != wok {
				t.Fatalf("%s: Match(%08x) = %v %v, comparator build %v %v", tag, addr, g, gok, w, wok)
			}
			p := MakePrefix(addr, uint8(r.Intn(33)))
			g, gok = got.MatchPrefix(p)
			w, wok = want.MatchPrefix(p)
			if g != w || gok != wok {
				t.Fatalf("%s: MatchPrefix(%v) = %v %v, comparator build %v %v", tag, p, g, gok, w, wok)
			}
		}
	}
}

// queryPrefixes is the query workloads' announcement shape at n
// prefixes over dests anchors: three quarters /12–/28 drawn at random,
// the rest nested under one of those on the same anchor, all distinct.
func queryPrefixes(r *rand.Rand, n int, dests int) []PrefixOrigin {
	out := make([]PrefixOrigin, 0, n)
	seen := make(map[Prefix]bool, n)
	free := n - n/4
	for len(out) < n {
		var p Prefix
		var node int
		if len(out) < free {
			p, node = MakePrefix(r.Uint32(), uint8(12+r.Intn(17))), r.Intn(dests)
		} else {
			cover := out[r.Intn(free)]
			if cover.Prefix.Len >= 28 {
				continue
			}
			l := cover.Prefix.Len + 1 + uint8(r.Intn(int(28-cover.Prefix.Len)))
			p, node = MakePrefix(cover.Prefix.Addr|r.Uint32()>>cover.Prefix.Len, l), cover.Node
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, PrefixOrigin{Prefix: p, Node: node, Origin: value.V(0)})
		}
	}
	return out
}

// BenchmarkNewPrefixTable times the leader's table build (NewPrefixTable)
// and the follower's (RestorePrefixTable) on the query workloads' shape,
// 4 096 announcements over 16 anchors, against the comparator build they
// replaced.
func BenchmarkNewPrefixTable(b *testing.B) {
	announced := queryPrefixes(rand.New(rand.NewSource(1)), 4096, 16)
	pt, err := NewPrefixTable(announced)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func() error
	}{
		{"new", func() error { _, err := NewPrefixTable(announced); return err }},
		{"new-comparator", func() error { _, err := comparatorNewPrefixTable(announced); return err }},
		{"restore", func() error { RestorePrefixTable(pt.Kept(), pt.Suppressed()); return nil }},
		{"restore-comparator", func() error { comparatorBuildPrefixTable(pt.Kept(), nil); return nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
