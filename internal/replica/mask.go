package replica

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"metarouting/internal/solve"
)

// Mask geometry: 64-bit words, 64 words (4 096 bits) to a chunk, and 16
// chunks to a directory page.
const (
	chunkShift = 12
	chunkBits  = 1 << chunkShift
	chunkWords = chunkBits / 64
	dirShift   = 4
	dirFan     = 1 << dirShift
)

type (
	maskChunk [chunkWords]uint64
	maskDir   [dirFan]*maskChunk
)

// Mask is a follower's per-arc failure mask: a persistent bitset that a
// delta's toggles derive the next version from in O(toggles), whatever
// the arc count.
//
// Bits sit LSB-first in 64-bit words — so a word's little-endian bytes
// are the wire's bit layout — the words in fixed 4 096-bit chunks, and
// the chunks behind a two-level directory: a top slice of pages of 16
// chunk pointers each. A Mask is never written once built. toggled
// clones the top slice (8 B per 65 536 arcs), then the pages (128 B) and
// chunks (512 B) its toggles touch, and shares every other page and
// chunk with the version it came from — the copy-on-write rule the
// follower's columns and pages follow. A flat directory would cost 8 B
// per chunk on every swap, 784 B at 400k arcs, and so grow with the
// topology. Bits at or past Len are always clear, and the set-bit count
// is carried, never recounted.
type Mask struct {
	n, count int
	dirs     []*maskDir
}

// Len is the number of arcs the mask covers.
func (m *Mask) Len() int { return m.n }

// Count is the number of set bits: the failed arcs.
func (m *Mask) Count() int { return m.count }

// Get reports whether arc i is failed; i must be in [0, Len).
func (m *Mask) Get(i int) bool {
	return m.chunk(i >> chunkShift)[i>>6&(chunkWords-1)]>>(i&63)&1 == 1
}

func (m *Mask) chunk(c int) *maskChunk { return m.dirs[c>>dirShift][c&(dirFan-1)] }

// unpackMask builds the n-bit mask whose bits raw holds in the wire
// layout — (n+7)/8 bytes, LSB-first — eight bytes to a word. Padding
// bits past n in the last byte are dropped. Every chunk sits in one
// backing array and every directory page in another.
func unpackMask(raw []byte, n int) Mask {
	chunks := make([]maskChunk, (n+chunkBits-1)>>chunkShift)
	pages := make([]maskDir, (len(chunks)+dirFan-1)>>dirShift)
	m := Mask{n: n, dirs: make([]*maskDir, len(pages))}
	for i := range pages {
		m.dirs[i] = &pages[i]
	}
	for c := range chunks {
		pages[c>>dirShift][c&(dirFan-1)] = &chunks[c]
	}
	for k := 0; k*64 < n; k++ {
		var w uint64
		if b := raw[k*8:]; len(b) >= 8 {
			w = binary.LittleEndian.Uint64(b)
		} else {
			for i, x := range b {
				w |= uint64(x) << (8 * i)
			}
		}
		if left := n - k*64; left < 64 {
			w &= 1<<left - 1
		}
		chunks[k/chunkWords][k%chunkWords] = w
		m.count += bits.OnesCount64(w)
	}
	return m
}

// toggled returns the mask with each toggle applied; m is not modified.
// Every toggle must flip its arc, and name an arc no other toggle names:
// the leader coalesces a swap's events so that each shipped toggle flips
// exactly one arc exactly once, so any other toggle means the follower's
// mask has diverged from the leader's, and is an error.
func (m *Mask) toggled(ts []solve.ArcToggle) (Mask, error) {
	next := *m
	if len(ts) == 0 {
		return next, nil
	}
	next.dirs = append([]*maskDir(nil), m.dirs...)
	for _, t := range ts {
		if t.Arc < 0 || t.Arc >= m.n {
			return Mask{}, fmt.Errorf("replica: toggle arc %d out of range [0,%d)", t.Arc, m.n)
		}
		was := m.Get(t.Arc)
		if was == t.Down {
			return Mask{}, fmt.Errorf("replica: toggle of arc %d to down=%v does not flip it: the mask has diverged from the leader's", t.Arc, t.Down)
		}
		if next.Get(t.Arc) != was {
			return Mask{}, fmt.Errorf("replica: arc %d toggled twice in one delta", t.Arc)
		}
		c := t.Arc >> chunkShift
		di, ci := c>>dirShift, c&(dirFan-1)
		page := next.dirs[di]
		if page == m.dirs[di] {
			cp := *page
			page = &cp
			next.dirs[di] = page
		}
		ch := page[ci]
		if ch == m.dirs[di][ci] {
			cp := *ch
			ch = &cp
			page[ci] = ch
		}
		ch[t.Arc>>6&(chunkWords-1)] ^= 1 << (t.Arc & 63)
		if t.Down {
			next.count++
		} else {
			next.count--
		}
	}
	return next, nil
}

// mask writes m exactly as bits writes the []bool it stands for: the
// length, then (n+7)/8 bytes, each word's little-endian bytes in turn.
func (w *wbuf) mask(m *Mask) {
	left := (m.n + 7) / 8
	w.b = slices.Grow(w.b, 4+left)
	w.u32(uint32(m.n))
	for c := 0; left > 0; c++ {
		for _, x := range m.chunk(c) {
			if left < 8 {
				for ; left > 0; left-- {
					w.b = append(w.b, byte(x))
					x >>= 8
				}
				break
			}
			w.b = binary.LittleEndian.AppendUint64(w.b, x)
			if left -= 8; left == 0 {
				break
			}
		}
	}
}
