package rib

// Boundary tests for the prefix plane: the /0 default route as a
// covering announcement and AutoPrefix node-id truncation collisions —
// plus RestorePrefixTable's reproduction of the interval index, which
// the replication follower depends on for matching answers and gauges.

import (
	"math/rand"
	"testing"

	"metarouting/internal/value"
)

func mustParse(t *testing.T, s string) Prefix {
	t.Helper()
	p, err := ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrefixTableDefaultRouteCovering: a /0 announcement is a valid
// covering prefix — it suppresses every same-node same-origin
// more-specific (including /32s), answers for every address, and loses
// to any kept more-specific by longest match.
func TestPrefixTableDefaultRouteCovering(t *testing.T) {
	pt, err := NewPrefixTable([]PrefixOrigin{
		{Prefix: mustParse(t, "0.0.0.0/0"), Node: 1, Origin: value.V(0)},
		{Prefix: mustParse(t, "10.0.0.0/8"), Node: 1, Origin: value.V(0)},     // suppressed: same node under /0
		{Prefix: mustParse(t, "10.1.1.1/32"), Node: 1, Origin: value.V(0)},    // suppressed: /32 under /0
		{Prefix: mustParse(t, "192.168.0.0/16"), Node: 2, Origin: value.V(0)}, // kept: different anchor
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Len() != 2 || len(pt.Suppressed()) != 2 {
		t.Fatalf("kept %d suppressed %d, want 2/2", pt.Len(), len(pt.Suppressed()))
	}
	// Every address resolves: the default catches anything the /16 does
	// not.
	for _, tc := range []struct {
		addr string
		node int
	}{
		{"10.1.1.1", 1},    // suppressed /32 answered by the default
		{"172.16.0.1", 1},  // no specific at all
		{"192.168.5.5", 2}, // kept more-specific wins by longest match
		{"255.255.255.255", 1},
		{"0.0.0.0", 1},
	} {
		addr, err := ParseAddr(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		po, ok := pt.Match(addr)
		if !ok || po.Node != tc.node {
			t.Fatalf("Match(%s) = %+v,%v; want node %d", tc.addr, po, ok, tc.node)
		}
	}
	// Prefix-form queries stop the walk at the query length: the /0
	// itself answers for a short query even though a longer kept prefix
	// sits inside it.
	if po, ok := pt.MatchPrefix(mustParse(t, "192.0.0.0/8")); !ok || po.Prefix.Len != 0 {
		t.Fatalf("MatchPrefix(/8) = %+v,%v; want the default route", po, ok)
	}
}

// TestAutoPrefixNodeIDCollision: AutoPrefix embeds the node id in
// 10/8's low 24 bits, so ids 2^24 apart collide on the same /32.
// AutoPrefixTable must surface that as the conflicting-anchor error,
// not silently shadow one node's announcement with the other's.
func TestAutoPrefixNodeIDCollision(t *testing.T) {
	lo, hi := 0, 1<<24
	if AutoPrefix(lo) != AutoPrefix(hi) {
		t.Fatalf("ids %d and %d should collide: %v vs %v", lo, hi, AutoPrefix(lo), AutoPrefix(hi))
	}
	_, err := AutoPrefixTable(map[int]value.V{lo: 0, hi: 0})
	if err == nil {
		t.Fatal("colliding auto-prefixes must be rejected")
	}
	// A genuine duplicate (same prefix, same anchor, same origin) is not
	// a conflict: it deduplicates.
	pt, err := NewPrefixTable([]PrefixOrigin{
		{Prefix: AutoPrefix(5), Node: 5, Origin: value.V(0)},
		{Prefix: AutoPrefix(5), Node: 5, Origin: value.V(0)},
	})
	if err != nil || pt.Len() != 1 {
		t.Fatalf("agreeing duplicate: pt=%v err=%v", pt, err)
	}
	// Same prefix, same anchor, different origin: conflict.
	if _, err := NewPrefixTable([]PrefixOrigin{
		{Prefix: AutoPrefix(5), Node: 5, Origin: value.V(0)},
		{Prefix: AutoPrefix(5), Node: 5, Origin: value.V(1)},
	}); err == nil {
		t.Fatal("conflicting origins on one prefix must be rejected")
	}
}

// TestRestorePrefixTableReproducesIndex: rebuilding from Kept() and
// Suppressed() must reproduce the aggregated table exactly — same
// lookups, same kept order, and the same range count, so follower
// gauges match the leader's.
func TestRestorePrefixTableReproducesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var announced []PrefixOrigin
	seen := make(map[Prefix]bool)
	for len(announced) < 40 {
		p := MakePrefix(r.Uint32(), uint8(r.Intn(33)))
		if seen[p] {
			continue
		}
		seen[p] = true
		announced = append(announced, PrefixOrigin{Prefix: p, Node: r.Intn(6), Origin: value.V(0)})
	}
	pt, err := NewPrefixTable(announced)
	if err != nil {
		t.Fatal(err)
	}
	re := RestorePrefixTable(pt.Kept(), pt.Suppressed())
	if re.Len() != pt.Len() || re.LPMIntervals() != pt.LPMIntervals() ||
		len(re.Suppressed()) != len(pt.Suppressed()) {
		t.Fatalf("restore: len %d/%d ranges %d/%d suppressed %d/%d",
			re.Len(), pt.Len(), re.LPMIntervals(), pt.LPMIntervals(),
			len(re.Suppressed()), len(pt.Suppressed()))
	}
	for i := 0; i < 2000; i++ {
		addr := r.Uint32()
		gp, gok := re.Match(addr)
		wp, wok := pt.Match(addr)
		if gok != wok || (gok && (gp.Prefix != wp.Prefix || gp.Node != wp.Node)) {
			t.Fatalf("Match(%x): restored %+v,%v original %+v,%v", addr, gp, gok, wp, wok)
		}
	}
}
