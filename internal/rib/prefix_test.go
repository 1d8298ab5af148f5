package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metarouting/internal/value"
)

func TestParseAddrAndPrefix(t *testing.T) {
	addr, err := ParseAddr("10.1.2.3")
	if err != nil || addr != 10<<24|1<<16|2<<8|3 {
		t.Fatalf("ParseAddr = %x, %v", addr, err)
	}
	for _, bad := range []string{"", "10.1.2", "10.1.2.3.4", "256.0.0.1", "a.b.c.d", "01.2.3.4", "-1.0.0.0"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q): want error", bad)
		}
	}
	p, err := ParsePrefix("10.1.2.3/16")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("masking: got %v", p)
	}
	if q, _ := ParsePrefix("10.1.2.3"); q.Len != 32 {
		t.Fatalf("bare address must be /32, got %v", q)
	}
	for _, bad := range []string{"10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q): want error", bad)
		}
	}
	if !p.Contains(10<<24 | 1<<16 | 99) {
		t.Fatal("Contains inside")
	}
	if p.Contains(10<<24 | 2<<16) {
		t.Fatal("Contains outside")
	}
	cover, _ := ParsePrefix("10.0.0.0/8")
	if !cover.Covers(p) || p.Covers(cover) {
		t.Fatal("Covers must be asymmetric across lengths")
	}
}

func TestAutoPrefix(t *testing.T) {
	p := AutoPrefix(259)
	if p.String() != "10.0.1.3/32" {
		t.Fatalf("AutoPrefix(259) = %v", p)
	}
}

// TestParseRejects lists every malformed form the parsers must refuse:
// octets and lengths are plain decimal digits, with no sign, no leading
// zero, no space and nothing trailing. The address forms are refused by
// ParsePrefix too, bare and with a length.
func TestParseRejects(t *testing.T) {
	addrs := []string{
		"", ".", "...", "10.1.2", "10.1.2.3.4", "10.1.2.", ".10.1.2", "10..1.2", "10.1.2.3.",
		"+1.2.3.4", "-0.0.0.0", "1.+2.3.4", "1.2.3.-4", "-1.0.0.0",
		"01.2.3.4", "1.2.3.04", "00.0.0.0", "1.2.3.00",
		"256.0.0.1", "1.2.3.256", "1000.0.0.0", "99999999999999999999.0.0.0",
		"a.b.c.d", "0x1.2.3.4", "1.2.3.4a", " 1.2.3.4", "1.2.3.4 ", "1.2 .3.4", "1,2,3,4", "١.2.3.4",
	}
	for _, bad := range addrs {
		if a, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) = %x, want error", bad, a)
		}
		for _, s := range []string{bad, bad + "/8"} {
			if p, err := ParsePrefix(s); err == nil {
				t.Errorf("ParsePrefix(%q) = %v, want error", s, p)
			}
		}
	}
	for _, l := range []string{"", "+8", "-0", "-1", "08", "00", "033", "33", "255", "256", "99999999999999999999",
		"x", "8x", " 8", "8 ", "8/8", "1e1", "0x8"} {
		if p, err := ParsePrefix("10.0.0.0/" + l); err == nil {
			t.Errorf("ParsePrefix(%q) = %v, want error", "10.0.0.0/"+l, p)
		}
	}
	for s, want := range map[string]Prefix{
		"0.0.0.0":            {Addr: 0, Len: 32},
		"255.255.255.255":    {Addr: ^uint32(0), Len: 32},
		"10.0.0.0/0":         {Addr: 0, Len: 0},
		"10.20.30.40/32":     {Addr: 10<<24 | 20<<16 | 30<<8 | 40, Len: 32},
		"10.255.0.9/9":       {Addr: 10<<24 | 128<<16, Len: 9},
		"100.200.250.199/10": {Addr: 100<<24 | 192<<16, Len: 10},
	} {
		if p, err := ParsePrefix(s); err != nil || p != want {
			t.Errorf("ParsePrefix(%q) = %v, %v; want %v", s, p, err, want)
		}
	}
}

// TestPrefixStringFormat holds Prefix.String to the fmt rendering it
// replaced, at every length and at the octet values whose digit counts
// differ.
func TestPrefixStringFormat(t *testing.T) {
	for _, addr := range []uint32{0, ^uint32(0), 10<<24 | 1<<16 | 2<<8 | 3, 0x09_63_64_ff, 0xc0_a8_00_01} {
		for l := uint8(0); l <= 32; l++ {
			p := MakePrefix(addr, l)
			want := fmt.Sprintf("%d.%d.%d.%d/%d", p.Addr>>24, p.Addr>>16&0xff, p.Addr>>8&0xff, p.Addr&0xff, p.Len)
			if got := p.String(); got != want {
				t.Fatalf("%#v.String() = %q, want %q", p, got, want)
			}
		}
	}
}

func TestPrefixTableAggregation(t *testing.T) {
	mk := func(s string, node int) PrefixOrigin {
		p, err := ParsePrefix(s)
		if err != nil {
			t.Fatal(err)
		}
		return PrefixOrigin{Prefix: p, Node: node, Origin: 0}
	}
	pt, err := NewPrefixTable([]PrefixOrigin{
		mk("10.0.0.0/8", 1),
		mk("10.1.0.0/16", 1), // same anchor as the /8: suppressed
		mk("10.2.0.0/16", 2), // different anchor: kept
		mk("10.0.0.7/32", 1), // same-node /32: suppressed
		mk("10.2.0.9/32", 2), // /32 under the node-2 /16: suppressed
		mk("11.0.0.5/32", 3), // uncovered /32: kept
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Len() != 3 {
		t.Fatalf("kept %d prefixes, want 3: %v", pt.Len(), pt.Kept())
	}
	if len(pt.Suppressed()) != 3 {
		t.Fatalf("suppressed %v, want 3", pt.Suppressed())
	}
	// Suppressed more-specifics must still resolve — through the cover.
	addr, _ := ParseAddr("10.1.2.3")
	if po, ok := pt.Match(addr); !ok || po.Node != 1 {
		t.Fatalf("Match(10.1.2.3) = %+v,%v, want node 1", po, ok)
	}
	addr, _ = ParseAddr("10.2.0.9")
	if po, ok := pt.Match(addr); !ok || po.Node != 2 {
		t.Fatalf("Match(10.2.0.9) = %+v,%v, want node 2", po, ok)
	}
	if _, ok := pt.Match(0); ok {
		t.Fatal("unannounced space must miss")
	}
	if got := pt.Origins(); len(got) != 3 {
		t.Fatalf("Origins = %v, want 3 nodes", got)
	}

	// Conflicting duplicate announcements and conflicting per-node
	// origins are configuration errors, not silent last-wins.
	if _, err := NewPrefixTable([]PrefixOrigin{mk("10.0.0.0/8", 1), mk("10.0.0.0/8", 2)}); err == nil {
		t.Fatal("conflicting duplicate must error")
	}
	if _, err := NewPrefixTable([]PrefixOrigin{
		{Prefix: MakePrefix(10<<24, 8), Node: 1, Origin: 0},
		{Prefix: MakePrefix(11<<24, 8), Node: 1, Origin: 1},
	}); err == nil {
		t.Fatal("conflicting node origin must error")
	}
	if _, err := NewPrefixTable(nil); err == nil {
		t.Fatal("empty set must error")
	}
}

// oracleMatch is the linear-scan longest match over a table's kept
// announcements that the interval index is held to: the longest kept
// prefix no longer than maxLen that contains addr.
func oracleMatch(pt *PrefixTable, addr uint32, maxLen uint8) (PrefixOrigin, bool) {
	best, ok := PrefixOrigin{}, false
	for _, po := range pt.Kept() {
		if po.Prefix.Len <= maxLen && po.Prefix.Contains(addr) && (!ok || po.Prefix.Len > best.Prefix.Len) {
			best, ok = po, true
		}
	}
	return best, ok
}

// checkAgainstOracle holds all four Match entry points to oracleMatch
// at the boundaries of every kept prefix (first and last address and
// one either side), at 0.0.0.0 and 255.255.255.255 and at extra, each
// at every query length, and checks the index's invariant directly:
// ranges start at 0, strictly ascend, never repeat an answer in
// adjacent ranges, and number at most 2·Len()+1.
func checkAgainstOracle(t *testing.T, tag string, pt *PrefixTable, extra ...uint32) {
	t.Helper()
	if len(pt.starts) == 0 || pt.starts[0] != 0 || len(pt.ranges) != len(pt.starts) ||
		pt.LPMIntervals() > 2*pt.Len()+1 {
		t.Fatalf("%s: %d ranges over %d kept prefixes, first start %v", tag, len(pt.starts), pt.Len(), pt.starts[:min(1, len(pt.starts))])
	}
	for r := 1; r < len(pt.starts); r++ {
		if pt.starts[r] <= pt.starts[r-1] || pt.ranges[r] == pt.ranges[r-1] {
			t.Fatalf("%s: ranges %d and %d start %x, %x answering %+v, %+v", tag, r-1, r,
				pt.starts[r-1], pt.starts[r], pt.ranges[r-1], pt.ranges[r])
		}
	}
	probes := append([]uint32{0, ^uint32(0)}, extra...)
	for _, po := range pt.Kept() {
		first, last := po.Prefix.Addr, po.Prefix.Addr|^mask(po.Prefix.Len)
		probes = append(probes, first, last, first-1, last+1)
	}
	for _, addr := range probes {
		want, wok := oracleMatch(pt, addr, 32)
		got, gok := pt.Match(addr)
		node, ml, nok := pt.MatchNode(addr)
		if gok != wok || got.Prefix != want.Prefix || got.Node != want.Node || got.Origin != want.Origin {
			t.Fatalf("%s: Match(%x) = %+v,%v, oracle %+v,%v", tag, addr, got, gok, want, wok)
		}
		if nok != wok || wok && (node != want.Node || ml != want.Prefix.Len) || !wok && (node != -1 || ml != 0) {
			t.Fatalf("%s: MatchNode(%x) = %d/%d/%v, oracle %+v,%v", tag, addr, node, ml, nok, want, wok)
		}
		for l := uint8(0); l <= 32; l++ {
			q := MakePrefix(addr, l)
			want, wok := oracleMatch(pt, q.Addr, l)
			got, gok := pt.MatchPrefix(Prefix{Addr: addr, Len: l}) // unmasked: the table masks
			node, ml, nok := pt.MatchPrefixNode(q)
			if gok != wok || got.Prefix != want.Prefix || got.Node != want.Node {
				t.Fatalf("%s: MatchPrefix(%v) = %+v,%v, oracle %+v,%v", tag, q, got, gok, want, wok)
			}
			if nok != wok || wok && (node != want.Node || ml != want.Prefix.Len) || !wok && (node != -1 || ml != 0) {
				t.Fatalf("%s: MatchPrefixNode(%v) = %d/%d/%v, oracle %+v,%v", tag, q, node, ml, nok, want, wok)
			}
		}
	}
}

// randomAnnouncements draws n distinct announcements over a few anchor
// nodes (each originating one weight, so sets never conflict): lengths
// 0–32, a third nested inside an earlier one so that covering chains
// grow deep, with the occasional /0 default and /32 host.
func randomAnnouncements(r *rand.Rand, n, nodes int) []PrefixOrigin {
	out := make([]PrefixOrigin, 0, n)
	seen := make(map[Prefix]bool, n)
	for len(out) < n {
		var p Prefix
		switch k := r.Intn(12); {
		case k == 0:
			p = Prefix{}
		case k == 1:
			p = MakePrefix(r.Uint32(), 32)
		case k < 6 && len(out) > 0:
			cover := out[r.Intn(len(out))].Prefix
			p = MakePrefix(cover.Addr|r.Uint32()&^mask(cover.Len), cover.Len+uint8(r.Intn(33-int(cover.Len))))
		default:
			p = MakePrefix(r.Uint32(), uint8(r.Intn(33)))
		}
		if !seen[p] {
			seen[p] = true
			node := r.Intn(nodes)
			out = append(out, PrefixOrigin{Prefix: p, Node: node, Origin: value.V(node % 3)})
		}
	}
	return out
}

func mustTable(t *testing.T, announced []PrefixOrigin) *PrefixTable {
	t.Helper()
	pt, err := NewPrefixTable(announced)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestPrefixTableAgainstOracle holds the interval index to the
// linear-scan oracle on a hand-built set (a /0 default, /32 hosts and a
// covering chain seven deep, each on its own anchor so nothing is
// suppressed) and on random sets, restored copies included.
func TestPrefixTableAgainstOracle(t *testing.T) {
	var chain []PrefixOrigin
	for i, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
		"10.1.2.128/25", "10.1.2.192/27", "10.1.2.200/32", "10.1.2.255/32", "0.0.0.0/32", "255.255.255.255/32"} {
		p, err := ParsePrefix(s)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, PrefixOrigin{Prefix: p, Node: i, Origin: value.V(0)})
	}
	pt := mustTable(t, chain)
	if pt.Len() != len(chain) {
		t.Fatalf("chain: kept %d of %d", pt.Len(), len(chain))
	}
	checkAgainstOracle(t, "chain", pt)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		pt := mustTable(t, randomAnnouncements(r, 1+r.Intn(80), 1+r.Intn(6)))
		tag := fmt.Sprintf("set %d", i)
		checkAgainstOracle(t, tag, pt, r.Uint32(), r.Uint32())
		checkAgainstOracle(t, tag+" restored", RestorePrefixTable(pt.Kept(), pt.Suppressed()), r.Uint32())
	}
}

// FuzzPrefixLPM builds a table from up to 32 fuzzed announcements — six
// bytes each: anchor node, length, address; a repeated prefix keeps its
// first anchor — and holds it and its restored copy to the linear-scan
// oracle.
func FuzzPrefixLPM(f *testing.F) {
	f.Add([]byte{0x01, 0x08, 0x0a, 0x00, 0x00, 0x00, 0x02, 0x10, 0x0a, 0x01, 0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0xff, 0x00, 0xff, 0x00, 0x01, 0x20, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var announced []PrefixOrigin
		seen := make(map[Prefix]bool)
		for i := 0; i+6 <= min(len(data), 6*32); i += 6 { // the oracle is quadratic
			addr := uint32(data[i+2])<<24 | uint32(data[i+3])<<16 | uint32(data[i+4])<<8 | uint32(data[i+5])
			p, node := MakePrefix(addr, data[i+1]%33), int(data[i]%8)
			if !seen[p] {
				seen[p] = true
				announced = append(announced, PrefixOrigin{Prefix: p, Node: node, Origin: value.V(node % 3)})
			}
		}
		if len(announced) == 0 {
			return
		}
		pt := mustTable(t, announced)
		checkAgainstOracle(t, "fuzz", pt)
		checkAgainstOracle(t, "fuzz restored", RestorePrefixTable(pt.Kept(), pt.Suppressed()))
	})
}

// shortestFirst is the aggregation NewPrefixTable ran before the
// interval index, kept as the oracle its sweep is pinned to: distinct
// announcements in (len, addr) order, each suppressed when the longest
// kept prefix covering it has the same anchor and origin, kept
// otherwise. (The cover was found with a trie then; a linear scan finds
// the same one.)
func shortestFirst(announced []PrefixOrigin) (kept, suppressed []PrefixOrigin) {
	byPrefix := make(map[Prefix]bool, len(announced))
	var ordered []PrefixOrigin
	for _, po := range announced {
		po.Prefix = MakePrefix(po.Prefix.Addr, po.Prefix.Len)
		if !byPrefix[po.Prefix] {
			byPrefix[po.Prefix] = true
			ordered = append(ordered, po)
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Prefix.Len != ordered[j].Prefix.Len {
			return ordered[i].Prefix.Len < ordered[j].Prefix.Len
		}
		return ordered[i].Prefix.Addr < ordered[j].Prefix.Addr
	})
	for _, po := range ordered {
		cover, ok := PrefixOrigin{}, false
		for _, k := range kept {
			if k.Prefix.Covers(po.Prefix) && (!ok || k.Prefix.Len > cover.Prefix.Len) {
				cover, ok = k, true
			}
		}
		if ok && cover.Node == po.Node && cover.Origin == po.Origin {
			suppressed = append(suppressed, po)
			continue
		}
		kept = append(kept, po)
	}
	return kept, suppressed
}

// TestAggregationMatchesShortestFirst pins the sweep's suppression
// decisions and the Kept()/Suppressed() order to the shortest-first
// algorithm on 300 random announcement sets: full replica records and
// the /v1/prefixes listing are built from exactly these lists.
func TestAggregationMatchesShortestFirst(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		announced := randomAnnouncements(r, 1+r.Intn(120), 1+r.Intn(4))
		pt := mustTable(t, announced)
		kept, suppressed := shortestFirst(announced)
		if !reflect.DeepEqual(pt.Kept(), kept) || !reflect.DeepEqual(pt.Suppressed(), suppressed) {
			t.Fatalf("set %d: kept %v suppressed %v, shortest-first kept %v suppressed %v",
				i, pt.Kept(), pt.Suppressed(), kept, suppressed)
		}
	}
}

func TestAutoPrefixTable(t *testing.T) {
	pt, err := AutoPrefixTable(map[int]value.V{0: 0, 7: 0})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pt.Len())
	}
	addr := AutoPrefix(7).Addr
	if po, ok := pt.Match(addr); !ok || po.Node != 7 {
		t.Fatalf("Match(auto 7) = %+v,%v", po, ok)
	}
	if _, ok := pt.Match(AutoPrefix(3).Addr); ok {
		t.Fatal("unannounced node must miss")
	}
	_ = fmt.Sprint(pt.Kept())
}
