package solve

import (
	"cmp"
	"slices"
	"unsafe"

	"metarouting/internal/graph"
)

// This file holds the derivation log's representation (derivation.go
// holds its replay): a persistent log that a rebuild derives from the
// previous column's by path copying, sharing every page it does not
// write.

// Persistent vector geometry: 16 words to a leaf and 16 pointers to a
// directory page on each of two levels, so one top slot covers 4 096
// words.
const (
	pvShift    = 4
	pvFan      = 1 << pvShift
	pvMask     = pvFan - 1
	pvTopShift = 3 * pvShift
)

type (
	pvLeaf [pvFan]int32
	pvMid  [pvFan]*pvLeaf
	pvHi   [pvFan]*pvMid
)

// pvec is a persistent array of words: leaves of 16 behind two levels of
// 16-pointer directory pages and a top slice, the shape replica.Mask
// uses for the arc mask with one level more, since a leaf here is 64 B
// instead of a 512 B chunk. A version derived from another owns a copy
// of the top slice and copies a directory page or leaf the first time it
// writes through one still shared (set); nothing reachable from a
// published version is written again. Every page is its own allocation,
// so a page a later version replaced is garbage once no column holds the
// version that had it.
type pvec struct{ top []*pvHi }

func (v *pvec) at(i int32) int32 { return v.leaf(i)[i&pvMask] }

// leaf returns the leaf holding word i.
func (v *pvec) leaf(i int32) *pvLeaf {
	return v.top[i>>pvTopShift][i>>(2*pvShift)&pvMask][i>>pvShift&pvMask]
}

// pvTop is the top slice's length for n words.
func pvTop(n int) int { return (n + 1<<pvTopShift - 1) >> pvTopShift }

// set writes x at i in v, a version derived from src whose top slice v
// already owns. A page or leaf on i's path that v still shares with src
// is copied first, and one missing from both is allocated, so src is
// never written.
func (v *pvec) set(src *pvec, i, x int32) {
	h, m, l := i>>pvTopShift, i>>(2*pvShift)&pvMask, i>>pvShift&pvMask
	var sh *pvHi
	if int(h) < len(src.top) {
		sh = src.top[h]
	}
	hi := v.top[h]
	if hi == nil || hi == sh {
		hi = cloneOrNew(hi)
		v.top[h] = hi
	}
	var sm *pvMid
	if sh != nil {
		sm = sh[m]
	}
	mid := hi[m]
	if mid == nil || mid == sm {
		mid = cloneOrNew(mid)
		hi[m] = mid
	}
	var sl *pvLeaf
	if sm != nil {
		sl = sm[l]
	}
	leaf := mid[l]
	if leaf == nil || leaf == sl {
		leaf = cloneOrNew(leaf)
		mid[l] = leaf
	}
	leaf[i&pvMask] = x
}

// cloneOrNew returns a fresh copy of *p, or a zero value when p is nil.
func cloneOrNew[P any](p *P) *P {
	q := new(P)
	if p != nil {
		*q = *p
	}
	return q
}

// bytes is what v holds that src does not at the same place, its top
// slice included.
func (v *pvec) bytes(src *pvec) int {
	b := 8 * len(v.top)
	for h, hi := range v.top {
		var sh *pvHi
		if h < len(src.top) {
			sh = src.top[h]
		}
		if hi == nil || hi == sh {
			continue
		}
		b += int(unsafe.Sizeof(*hi))
		for m, mid := range hi {
			var sm *pvMid
			if sh != nil {
				sm = sh[m]
			}
			if mid == nil || mid == sm {
				continue
			}
			b += int(unsafe.Sizeof(*mid))
			for k, leaf := range mid {
				if leaf != nil && (sm == nil || leaf != sm[k]) {
					b += int(unsafe.Sizeof(*leaf))
				}
			}
		}
	}
	return b
}

// hasPrev flags an entry's arc word when its node has an earlier live
// entry; the entry's next word then holds that entry's position.
const hasPrev = int32(-1 << 31)

// Log is a column's derivation log (Workspace.DerivationLog), immutable
// once returned. Entries sit at stable positions in append order; a
// per-node index names each node's last live entry, and each entry links
// to its node's previous live one, so a node's live entries are a chain
// that ends at its index slot. A replay reaches a node's entries from the
// index alone, never by scanning the log.
//
// An entry is one word, its arc, unless its node has an earlier live
// entry: then the arc word carries hasPrev and a second word the earlier
// entry's position. A position is the offset of an entry's arc word, so
// most entries cost 4 B, and the index costs 4 B a node.
//
// A rebuild derives its log from the previous column's: it unlinks the
// entries its replay found invalid and appends the ones its drain wrote,
// rewriting only the index slots and chain links around them. Both are
// pvecs, so the new log copies the leaves and directory pages it writes
// plus the two top slices, and shares the rest. An unlinked entry keeps
// its words until compaction, which rebuilds the log from its live
// entries once more than a quarter of the node count has been appended
// since the last one.
type Log struct {
	words pvec // entries by position, [0, n)
	last  pvec // by node: the last live entry's position, -1 if none
	nodes int32
	// n counts words, live the live entries, and grown the entries
	// appended since the last compaction.
	n, live, grown int32
}

// entry reads the entry at position p: its arc, and its node's previous
// live entry (-1 if none).
func (l *Log) entry(p int32) (arc, prev int32) {
	if arc = l.words.at(p); arc >= 0 {
		return arc, -1
	}
	return arc &^ hasPrev, l.words.at(p + 1)
}

// Len is the number of live entries.
func (l *Log) Len() int { return int(l.live) }

// Arcs returns the live entries' arcs in log order, in a fresh slice. It
// costs O(words + nodes): tests and diagnostics read a log whole,
// rebuilds never do.
func (l *Log) Arcs() []int32 { return l.appendLive(nil, make([]bool, l.n)) }

// appendLive appends the live entries' arcs to dst in log order. mark,
// of at least n cleared slots, flags the positions some node's chain
// reaches.
func (l *Log) appendLive(dst []int32, mark []bool) []int32 {
	for base := int32(0); base < l.nodes; base += pvFan {
		for _, p := range l.last.leaf(base)[:min(pvFan, l.nodes-base)] {
			for ; p >= 0; _, p = l.entry(p) {
				mark[p] = true
			}
		}
	}
	for base := int32(0); base < l.n; base += pvFan {
		for k, w := range l.words.leaf(base)[:min(pvFan, l.n-base)] {
			if mark[base+int32(k)] {
				dst = append(dst, w&^hasPrev)
			}
		}
	}
	return dst
}

// Bytes is the memory l holds that it does not share with since, which
// may be nil: its header, its two top slices and every directory page
// and leaf that since does not hold at the same place — what deriving l
// from since allocated, unless a compaction rebuilt it. It is 0 when l
// is since.
func (l *Log) Bytes(since *Log) int {
	if l == since {
		return 0
	}
	var sw, sl pvec
	if since != nil {
		sw, sl = since.words, since.last
	}
	return int(unsafe.Sizeof(*l)) + l.words.bytes(&sw) + l.last.bytes(&sl)
}

// deadEntry is an entry a replay found invalid: its position, its node,
// and the position of the node's next live entry (noEntry if none), which
// bounds the entry's children.
type deadEntry struct {
	pos, node, next int32
}

// noEntry is the position past every entry.
const noEntry = int32(1<<31 - 1)

// derive returns the log after a rebuild: l without the dead entries,
// which must be sorted by position, then arcs appended in order. l is
// not modified.
func (l *Log) derive(g *graph.Graph, dead []deadEntry, arcs []int32) *Log {
	next := &Log{nodes: l.nodes, n: l.n, live: l.live - int32(len(dead)) + int32(len(arcs)), grown: l.grown + int32(len(arcs))}
	next.last.top = slices.Clone(l.last.top)
	next.words.top = make([]*pvHi, pvTop(int(l.n)+2*len(arcs)))
	copy(next.words.top, l.words.top)
	for _, d := range dead {
		next.unlink(l, d.node, dead)
	}
	for _, ai := range arcs {
		next.append(l, g, ai)
	}
	return next
}

// append writes an entry on arc ai at the end of l, derived from src,
// and makes it its node's last.
func (l *Log) append(src *Log, g *graph.Graph, ai int32) {
	x := int32(g.Arcs[ai].From)
	p := l.n
	if prev := l.last.at(x); prev < 0 {
		l.words.set(&src.words, p, ai)
	} else {
		l.words.set(&src.words, p, ai|hasPrev)
		l.words.set(&src.words, p+1, prev)
		l.n++
	}
	l.n++
	l.last.set(&src.last, x, p)
}

// unlink drops x's dead entries from its chain in l, derived from
// src: each live entry is linked to the live one before it, and the index
// to the last. Links already right are not written, so a second call for
// the same node writes nothing.
func (l *Log) unlink(src *Log, x int32, dead []deadEntry) {
	succ := int32(-1) // the latest live entry seen, whose link is pending
	for p := l.last.at(x); p >= 0; {
		_, prev := l.entry(p)
		if _, ok := slices.BinarySearchFunc(dead, p, func(d deadEntry, p int32) int { return cmp.Compare(d.pos, p) }); !ok {
			l.link(src, x, succ, p)
			succ = p
		}
		p = prev
	}
	l.link(src, x, succ, -1)
}

// link makes p the live entry before succ at node x, or x's last when
// succ is -1. An entry that needs a link had an earlier entry, so it
// already has the word to hold it.
func (l *Log) link(src *Log, x, succ, p int32) {
	if succ < 0 {
		if l.last.at(x) != p {
			l.last.set(&src.last, x, p)
		}
		return
	}
	if _, prev := l.entry(succ); prev != p {
		l.words.set(&src.words, succ+1, p)
	}
}

// freshLog builds the log holding arcs, in order, with every page new.
func freshLog(g *graph.Graph, arcs []int32) *Log {
	var none Log
	l := &Log{nodes: int32(g.N), live: int32(len(arcs)), last: pvec{top: make([]*pvHi, pvTop(g.N))}}
	for x := int32(0); x < l.nodes; x += pvFan {
		l.last.set(&none.last, x, -1)
		leaf := l.last.leaf(x)
		for k := range leaf {
			leaf[k] = -1
		}
	}
	// An entry takes at most two words.
	l.words.top = make([]*pvHi, pvTop(2*len(arcs)))
	for _, ai := range arcs {
		l.append(&none, g, ai)
	}
	return l
}
