package rib

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"metarouting/internal/value"
)

// This file holds the prefix destination plane: IPv4 prefixes, an
// immutable interval index for longest match, and the PrefixTable that
// maps announced prefixes onto anchor nodes with DoubleZero-style
// aggregation — a more-specific prefix (including /32 user routes) is
// suppressed when a covering prefix anchored at the same node with the
// same origin already answers for it, since longest-match through the
// covering route forwards identically.

// Prefix is an IPv4 prefix in host byte order. Addr is stored masked:
// bits past Len are zero.
type Prefix struct {
	Addr uint32
	Len  uint8
}

// mask returns the network mask for a prefix length.
func mask(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

// MakePrefix masks addr to l bits.
func MakePrefix(addr uint32, l uint8) Prefix {
	if l > 32 {
		l = 32
	}
	return Prefix{Addr: addr & mask(l), Len: l}
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr uint32) bool {
	return addr&mask(p.Len) == p.Addr
}

// Covers reports whether p covers q (q is equal or more specific).
func (p Prefix) Covers(q Prefix) bool {
	return p.Len <= q.Len && q.Addr&mask(p.Len) == p.Addr
}

// String renders dotted-quad/len.
func (p Prefix) String() string {
	s := make([]byte, 0, len("255.255.255.255/255"))
	for shift := 24; shift >= 0; shift -= 8 {
		s = append(strconv.AppendUint(s, uint64(p.Addr>>shift&0xff), 10), '.')
	}
	s[len(s)-1] = '/'
	return string(strconv.AppendUint(s, uint64(p.Len), 10))
}

// decimal reads the number of plain decimal digits (no sign, no leading
// zero) s starts with, at most limit, and returns it with the rest of s.
func decimal(s string, limit int) (v int, rest string, ok bool) {
	n := 0
	for ; n < len(s) && '0' <= s[n] && s[n] <= '9'; n++ {
		if v = v*10 + int(s[n]-'0'); v > limit {
			return 0, s, false
		}
	}
	return v, s[n:], n == 1 || n > 1 && s[0] != '0'
}

// ParseAddr parses a dotted-quad IPv4 address into host byte order.
func ParseAddr(s string) (uint32, error) {
	var addr uint32
	rest, ok := s, true
	for i := 0; i < 4 && ok; i++ {
		var o int
		if o, rest, ok = decimal(rest, 255); ok && i < 3 {
			rest, ok = strings.CutPrefix(rest, ".")
		}
		addr = addr<<8 | uint32(o)
	}
	if !ok || rest != "" {
		return 0, fmt.Errorf("rib: bad address %q", s)
	}
	return addr, nil
}

// ParsePrefix parses "a.b.c.d/len" (a bare address is a /32). The
// address is masked to the prefix length.
func ParsePrefix(s string) (Prefix, error) {
	addrStr, lenStr, ok := strings.Cut(s, "/")
	addr, err := ParseAddr(addrStr)
	if err != nil {
		return Prefix{}, err
	}
	if !ok {
		return Prefix{Addr: addr, Len: 32}, nil
	}
	l, rest, ok := decimal(lenStr, 32)
	if !ok || rest != "" {
		return Prefix{}, fmt.Errorf("rib: bad prefix length in %q", s)
	}
	return MakePrefix(addr, uint8(l)), nil
}

// AutoPrefix is the synthetic /32 a node-keyed destination gets when no
// explicit prefix set is configured: node id embedded in 10/8, so
// address-form queries work out of the box on legacy scenarios.
func AutoPrefix(node int) Prefix {
	return Prefix{Addr: 10<<24 | uint32(node)&0xffffff, Len: 32}
}

// PrefixOrigin announces one prefix: anchored at a node, originated
// with a weight.
type PrefixOrigin struct {
	Prefix Prefix
	// Node is the anchor: the graph node whose route column answers for
	// the prefix.
	Node int
	// Origin is the weight the anchor originates the prefix with.
	Origin value.V
}

// lpmHit is a kept prefix as the index answers it: its column, anchor
// node and length. col -1 (node -1) is no prefix.
type lpmHit struct {
	col, node int32
	len       uint8
}

// PrefixTable is the immutable prefix→anchor index a snapshot carries:
// the kept (post-aggregation) announcements, indexed by column id, the
// suppression record, and an interval index over the kept set: disjoint
// ranges covering [0, 2³²), range r starting at starts[r] with
// ranges[r] its deepest covering kept prefix, and cover[col] column
// col's longest kept strict coverer, for prefix queries to climb.
type PrefixTable struct {
	kept       []PrefixOrigin
	suppressed []PrefixOrigin
	starts     []uint32
	ranges     []lpmHit
	cover      []lpmHit
}

// NewPrefixTable aggregates and indexes a prefix announcement set.
// Announcements are validated (duplicate prefixes must agree on anchor
// and origin; each anchor node must originate with one weight), then
// aggregated: an announcement is suppressed when a strictly covering
// announcement has the same anchor node and equal origin — longest
// match through the covering prefix forwards identically, so the
// more-specific column would be byte-for-byte redundant. This is the
// same-node /32 suppression rule generalized to any length pair. Kept
// columns and the suppression record are in (len, addr) order.
//
// One integer sort does the ordering and the duplicate search: each
// announcement's (len, addr, position) packed into a uint64 key, so a
// prefix's announcements are adjacent, its first one leads, and the
// leaders are the distinct prefixes in (len, addr) order.
func NewPrefixTable(announced []PrefixOrigin) (*PrefixTable, error) {
	if len(announced) == 0 {
		return nil, fmt.Errorf("rib: empty prefix announcement set")
	}
	if len(announced) > keyIndexMask {
		return nil, fmt.Errorf("rib: %d prefix announcements, more than %d", len(announced), keyIndexMask)
	}
	keys := make([]uint64, len(announced))
	for i, po := range announced {
		p := MakePrefix(po.Prefix.Addr, po.Prefix.Len)
		keys[i] = uint64(p.Len)<<58 | uint64(p.Addr)<<keyIndexBits | uint64(i)
	}
	slices.Sort(keys)
	// first[i] is the position of the first announcement of announced[i]'s
	// prefix; ordered lists the distinct prefixes' first announcements.
	first := make([]int32, len(announced))
	ordered := make([]PrefixOrigin, 0, len(announced))
	lead := -1
	for k, key := range keys {
		i := int32(key & keyIndexMask)
		if k == 0 || key>>keyIndexBits != keys[k-1]>>keyIndexBits {
			lead = int(i)
			po := announced[i]
			po.Prefix = MakePrefix(po.Prefix.Addr, po.Prefix.Len)
			ordered = append(ordered, po)
		}
		first[i] = int32(lead)
	}
	// Validation runs in announcement order, so the error reported is the
	// first conflict met.
	nodeOrigin := make(map[int]value.V)
	for i, po := range announced {
		if j := first[i]; int(j) != i {
			if prev := announced[j]; prev.Node != po.Node || prev.Origin != po.Origin {
				return nil, fmt.Errorf("rib: prefix %v announced twice with conflicting anchors", MakePrefix(po.Prefix.Addr, po.Prefix.Len))
			}
			continue
		}
		if o, ok := nodeOrigin[po.Node]; ok && o != po.Origin {
			return nil, fmt.Errorf("rib: node %d originates conflicting weights", po.Node)
		}
		nodeOrigin[po.Node] = po.Origin
	}
	return buildPrefixTable(ordered, func(i, c int32) bool {
		return c < 0 || ordered[c].Node != ordered[i].Node || ordered[c].Origin != ordered[i].Origin
	}), nil
}

// The sort keys pack a prefix's fields above an announcement's position,
// which takes the low keyIndexBits bits: 6 bits of length and 32 of
// address leave 26.
const (
	keyIndexBits = 26
	keyIndexMask = 1<<keyIndexBits - 1
)

// RestorePrefixTable rebuilds a PrefixTable from an already-aggregated
// announcement set — the replication follower's entry point. kept must
// be in column order (exactly what Kept() returns); no validation or
// aggregation reruns, and the index is a function of the kept set alone,
// so a follower's LPM answers and range gauge match the leader's.
// Origins may be zero values: followers never re-solve, they only map
// longest-match hits onto replicated columns.
func RestorePrefixTable(kept, suppressed []PrefixOrigin) *PrefixTable {
	pt := buildPrefixTable(kept, nil)
	pt.suppressed = slices.Clone(suppressed)
	return pt
}

// buildPrefixTable splits ps, in column order, into kept and suppressed
// announcements and indexes the kept ones, in one sweep over ps in
// (addr, len) order holding the kept prefixes that cover the current
// address on a stack. In that order a prefix the top does not cover lies
// wholly past the top's end, so once those are popped the top is the
// next prefix's longest kept strict coverer: keep(i, top) decides
// whether ps[i] is kept (nil keep: all are). Each push and pop closes at
// most one range, so there are at most 2·len(ps)+1.
func buildPrefixTable(ps []PrefixOrigin, keep func(i, cover int32) bool) *PrefixTable {
	// (addr, len, position) packed like NewPrefixTable's keys: position
	// breaks ties, which are repeats in a restored set. ps holds fewer
	// than 2²⁶ announcements: NewPrefixTable checks, and a restored set
	// comes off a frame of at most 2²⁸ bytes, nine per announcement.
	keys := make([]uint64, len(ps))
	for i, po := range ps {
		keys[i] = uint64(po.Prefix.Addr)<<32 | uint64(po.Prefix.Len)<<keyIndexBits | uint64(i)
	}
	slices.Sort(keys)
	order := make([]int32, len(ps))
	for k, key := range keys {
		order[k] = int32(key & keyIndexMask)
	}
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

// AutoPrefixTable builds the synthetic table for node-keyed origins:
// one AutoPrefix /32 per destination.
func AutoPrefixTable(origins map[int]value.V) (*PrefixTable, error) {
	announced := make([]PrefixOrigin, 0, len(origins))
	for node, o := range origins {
		announced = append(announced, PrefixOrigin{Prefix: AutoPrefix(node), Node: node, Origin: o})
	}
	return NewPrefixTable(announced)
}

// match returns the deepest kept prefix covering addr, that of the last
// range starting ≤ addr (starts[0] is 0): ⌈log₂ ranges⌉ halvings, each
// stepping by a mask where a branch would mispredict half the time.
func (pt *PrefixTable) match(addr uint32) lpmHit {
	s, lo := pt.starts, 0
	for n := len(s); n > 1; {
		half := n >> 1
		lo += half &^ int((int64(addr)-int64(s[lo+half]))>>63) // -1: start past addr
		n -= half
	}
	return pt.ranges[lo]
}

// matchPrefix returns the longest kept prefix covering p: the deepest
// one covering p.Addr, climbed through strict coverers until it is no
// longer than p. Any address inside p will do, so p need not be masked.
func (pt *PrefixTable) matchPrefix(p Prefix) lpmHit {
	h := pt.match(p.Addr)
	for h.col >= 0 && h.len > p.Len {
		h = pt.cover[h.col]
	}
	return h
}

// announcement materializes a hit's kept announcement.
func (pt *PrefixTable) announcement(h lpmHit) (PrefixOrigin, bool) {
	if h.col < 0 {
		return PrefixOrigin{}, false
	}
	return pt.kept[h.col], true
}

// Match resolves an address by longest match to its anchor
// announcement.
func (pt *PrefixTable) Match(addr uint32) (PrefixOrigin, bool) {
	return pt.announcement(pt.match(addr))
}

// MatchPrefix resolves a prefix query to the longest kept announcement
// covering it.
func (pt *PrefixTable) MatchPrefix(p Prefix) (PrefixOrigin, bool) {
	return pt.announcement(pt.matchPrefix(p))
}

// MatchNode resolves an address to its anchor node and matched prefix
// length, or (-1, 0, false), without materializing the announcement —
// the batched binary query path's entry point.
func (pt *PrefixTable) MatchNode(addr uint32) (node int, matchLen uint8, ok bool) {
	h := pt.match(addr)
	return int(h.node), h.len, h.col >= 0
}

// MatchPrefixNode resolves a prefix query to its anchor node and
// matched length, the index-form counterpart of MatchPrefix.
func (pt *PrefixTable) MatchPrefixNode(p Prefix) (node int, matchLen uint8, ok bool) {
	h := pt.matchPrefix(p)
	return int(h.node), h.len, h.col >= 0
}

// Kept returns the post-aggregation announcements in column order.
func (pt *PrefixTable) Kept() []PrefixOrigin { return pt.kept }

// Suppressed returns the announcements aggregation dropped.
func (pt *PrefixTable) Suppressed() []PrefixOrigin { return pt.suppressed }

// Origins collapses the kept announcements to per-node origins — the
// destination set the column builder solves for.
func (pt *PrefixTable) Origins() map[int]value.V {
	out := make(map[int]value.V)
	for _, po := range pt.kept {
		out[po.Node] = po.Origin
	}
	return out
}

// LPMIntervals returns the interval index's range count (a memory
// gauge: at most 2·Len()+1).
func (pt *PrefixTable) LPMIntervals() int { return len(pt.starts) }

// Len returns the number of kept prefixes.
func (pt *PrefixTable) Len() int { return len(pt.kept) }
