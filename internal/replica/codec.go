// Package replica is the snapshot replication layer: a versioned,
// length-prefixed binary wire format for full route-table snapshots and
// snapshot deltas, an append-only event log, and the leader/follower
// transport that extends the deterministic per-destination DBF
// computations (Daggitt & Griffin, PAPERS.md) across processes. The
// leader records every snapshot swap as either a full snapshot or the
// delta touched-entry set; a follower that applies the records in order
// reconstructs the leader's paged columns byte for byte, because both
// sides lay page pools out in the same canonical ascending-node order. That
// makes "follower == leader at every version" a testable invariant (the
// serve differential storm test asserts exactly that) instead of a
// hope.
//
// Wire format. Every record is one frame:
//
//	| payloadLen u32 | payload | crc32(payload) u32 |
//
// with payload = | formatVersion u8 | kind u8 | body |, all integers
// little-endian. The CRC is IEEE crc32 over the payload, so a flipped
// bit anywhere — version byte included — fails the frame before any
// body decoding runs. Bodies are bounds-checked against the received
// byte count before any count-sized allocation, so truncated or
// hostile frames error without panicking or over-allocating
// (FuzzDecodeRecord hammers exactly these properties).
//
// Columns travel without their NhOff fields: every column builder in
// internal/rib appends next-hop spans in ascending node order, so the
// offsets are reproducible from the span lengths alone. The decoder
// recomputes them and cross-checks the pool length, which both saves
// four bytes a slot and turns the canonical-layout assumption into a
// checked invariant.
package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"metarouting/internal/rib"
	"metarouting/internal/solve"
)

// FormatVersion is the wire format generation; decoders reject frames
// carrying any other value.
const FormatVersion = 1

// Record kinds.
const (
	// KindFull is a complete snapshot: disabled mask, weight-name table,
	// prefix announcements and every destination column.
	KindFull byte = 1
	// KindDelta is one swap's touched-entry set: the arc toggles, the
	// per-destination slot diffs (or full columns where the diff would
	// not pay) and the weight-name table tail.
	KindDelta byte = 2
	// KindSubscribe is the client → leader handshake carrying the
	// follower's current version (0 = bootstrap from a full snapshot).
	KindSubscribe byte = 3
)

// maxFrame bounds a frame payload; larger length prefixes are rejected
// before any allocation.
const maxFrame = 1 << 28

// Announcement is one prefix announcement on the wire: the prefix and
// its anchor node. Origin weights do not travel — a follower never
// re-solves, so it only needs the longest-match mapping onto columns.
type Announcement struct {
	Prefix rib.Prefix
	Node   int
}

// Full is a complete snapshot record.
type Full struct {
	// Version is the leader snapshot version the record captures.
	Version uint64
	// Fingerprint identifies the leader's base topology and algebra;
	// followers refuse to mix records from different fingerprints.
	Fingerprint uint64
	// Nodes is the node count every column's slot slice must match.
	Nodes int
	// Disabled is the per-arc failure mask at this version.
	Disabled []bool
	// Unconverged lists destinations whose fixpoint did not settle.
	Unconverged []int
	// Names maps engine weight indices to their formatted values, so a
	// follower renders weights without holding the leader's intern
	// table. The table is append-only across a record stream.
	Names []string
	// Kept and Suppressed mirror the leader's aggregated prefix table in
	// its exact insertion order, so the rebuilt LPM trie answers
	// identically node for node.
	Kept, Suppressed []Announcement
	// Columns holds every destination column, ascending by destination.
	Columns []*rib.Column
}

// SlotChange is one changed route entry inside a ColumnDiff — the
// slot patch rib.PagedColumn.Patch applies.
type SlotChange = rib.SlotPatch

// ColumnDiff is one destination's touched-entry set: the slots whose
// content changed across the swap, ascending by node. Patching the
// pages that hold them, in canonical layout, reproduces the leader's
// new column byte for byte.
type ColumnDiff struct {
	Dest      int
	Converged bool
	Changes   []SlotChange
}

// Delta is one snapshot swap's record.
type Delta struct {
	// FromVersion is the version the delta applies on top of; Version is
	// the resulting one.
	FromVersion, Version uint64
	Fingerprint          uint64
	// Toggles is the coalesced arc state change of the swap; followers
	// apply it to their disabled mask.
	Toggles []solve.ArcToggle
	// Unconverged is the full unconverged list at Version.
	Unconverged []int
	// NameBase/NamesTail extend the follower's weight-name table:
	// NamesTail holds names for indices [NameBase, NameBase+len).
	NameBase  int
	NamesTail []string
	// Scratch carries full columns for destinations whose diff would
	// have been larger than the column itself.
	Scratch []*rib.Column
	// Diffs carries the touched-entry sets, one per delta-encoded
	// destination.
	Diffs []ColumnDiff
}

// Record is one decoded frame.
type Record struct {
	Kind byte
	// WireBytes is the full frame size including header and CRC — the
	// bytes-on-wire reading the replication histograms observe.
	WireBytes int

	Full          *Full
	Delta         *Delta
	SubscribeFrom uint64
}

// Version returns the snapshot version a full or delta record produces
// (0 for subscribe records).
func (r *Record) Version() uint64 {
	switch r.Kind {
	case KindFull:
		return r.Full.Version
	case KindDelta:
		return r.Delta.Version
	}
	return 0
}

// ---------------------------------------------------------------------
// Encoding

// wbuf is a little-endian append buffer.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i32(v int32)  { w.u32(uint32(v)) }
func (w *wbuf) bool(v bool)  { w.u8(map[bool]byte{false: 0, true: 1}[v]) }
func (w *wbuf) str(s string) { w.u32(uint32(len(s))); w.b = append(w.b, s...) }
func (w *wbuf) bits(v []bool) {
	w.u32(uint32(len(v)))
	var cur byte
	for i, b := range v {
		if b {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			w.u8(cur)
			cur = 0
		}
	}
	if len(v)&7 != 0 {
		w.u8(cur)
	}
}

func (w *wbuf) ints(v []int) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.i32(int32(x))
	}
}

func (w *wbuf) column(c *rib.Column) {
	w.u32(uint32(c.Dest))
	w.bool(c.Converged)
	w.u32(uint32(len(c.Slots)))
	for i := range c.Slots {
		s := &c.Slots[i]
		if !s.Routed {
			w.u8(0)
			continue
		}
		w.u8(1)
		w.i32(s.W)
		w.u32(uint32(s.NhLen))
	}
	w.u32(uint32(len(c.Pool)))
	for _, v := range c.Pool {
		w.i32(v)
	}
}

func (w *wbuf) announcements(as []Announcement) {
	w.u32(uint32(len(as)))
	for _, a := range as {
		w.u32(a.Prefix.Addr)
		w.u8(a.Prefix.Len)
		w.u32(uint32(a.Node))
	}
}

// frame wraps a payload body in the record frame.
func frame(kind byte, body []byte) []byte {
	payload := make([]byte, 0, len(body)+2)
	payload = append(payload, FormatVersion, kind)
	payload = append(payload, body...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// EncodeFull frames a full snapshot record.
func EncodeFull(f *Full) []byte {
	var w wbuf
	w.u64(f.Version)
	w.u64(f.Fingerprint)
	w.u32(uint32(f.Nodes))
	w.bits(f.Disabled)
	w.ints(f.Unconverged)
	w.u32(uint32(len(f.Names)))
	for _, s := range f.Names {
		w.str(s)
	}
	w.announcements(f.Kept)
	w.announcements(f.Suppressed)
	w.u32(uint32(len(f.Columns)))
	for _, c := range f.Columns {
		w.column(c)
	}
	return frame(KindFull, w.b)
}

// EncodeDelta frames a snapshot delta record.
func EncodeDelta(d *Delta) []byte {
	var w wbuf
	w.u64(d.FromVersion)
	w.u64(d.Version)
	w.u64(d.Fingerprint)
	w.u32(uint32(len(d.Toggles)))
	for _, t := range d.Toggles {
		w.u32(uint32(t.Arc))
		w.bool(t.Down)
	}
	w.ints(d.Unconverged)
	w.u32(uint32(d.NameBase))
	w.u32(uint32(len(d.NamesTail)))
	for _, s := range d.NamesTail {
		w.str(s)
	}
	w.u32(uint32(len(d.Scratch)))
	for _, c := range d.Scratch {
		w.column(c)
	}
	w.u32(uint32(len(d.Diffs)))
	for _, diff := range d.Diffs {
		w.u32(uint32(diff.Dest))
		w.bool(diff.Converged)
		w.u32(uint32(len(diff.Changes)))
		for _, ch := range diff.Changes {
			w.u32(uint32(ch.Node))
			if !ch.Routed {
				w.u8(0)
				continue
			}
			w.u8(1)
			w.i32(ch.W)
			w.u32(uint32(len(ch.NextHop)))
			for _, h := range ch.NextHop {
				w.i32(h)
			}
		}
	}
	return frame(KindDelta, w.b)
}

// EncodeSubscribe frames the client handshake.
func EncodeSubscribe(fromVersion uint64) []byte {
	var w wbuf
	w.u64(fromVersion)
	return frame(KindSubscribe, w.b)
}

// ---------------------------------------------------------------------
// Decoding

// rbuf is a bounds-checked little-endian reader over a payload body.
// Every count is validated against the remaining byte budget before the
// corresponding slice is allocated, so a hostile length field cannot
// force an allocation larger than the received frame.
type rbuf struct {
	b   []byte
	off int
}

func (r *rbuf) fail(format string, args ...any) error {
	return fmt.Errorf("replica: decode at offset %d: %s", r.off, fmt.Sprintf(format, args...))
}

func (r *rbuf) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, r.fail("need %d bytes, have %d", n, len(r.b)-r.off)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *rbuf) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *rbuf) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, r.fail("bad bool byte %d", v)
	}
	return v == 1, nil
}

func (r *rbuf) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *rbuf) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *rbuf) i32() (int32, error) {
	v, err := r.u32()
	return int32(v), err
}

// count reads a u32 count and validates that at least count*minElem
// bytes remain, making count-sized allocations safe.
func (r *rbuf) count(minElem int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || (minElem > 0 && len(r.b)-r.off < n*minElem) {
		return 0, r.fail("count %d exceeds remaining %d bytes (min elem %d)", n, len(r.b)-r.off, minElem)
	}
	return n, nil
}

func (r *rbuf) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	return string(b), err
}

func (r *rbuf) bits() ([]bool, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	nb := (int(n) + 7) / 8
	raw, err := r.take(nb)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i/8]>>(i&7)&1 == 1
	}
	return out, nil
}

func (r *rbuf) ints() ([]int, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.i32()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// column decodes one column, recomputing NhOff from the canonical
// ascending-node pool layout and cross-checking the pool length.
func (r *rbuf) column(nodes int) (*rib.Column, error) {
	dest, err := r.u32()
	if err != nil {
		return nil, err
	}
	converged, err := r.bool()
	if err != nil {
		return nil, err
	}
	nSlots, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if nodes > 0 && nSlots != nodes {
		return nil, r.fail("column %d has %d slots, want %d", dest, nSlots, nodes)
	}
	if int(dest) >= nSlots {
		return nil, r.fail("column dest %d out of range [0,%d)", dest, nSlots)
	}
	c := &rib.Column{Dest: int(dest), Converged: converged, Slots: make([]rib.EntrySlot, nSlots)}
	var off int64
	for i := range c.Slots {
		routed, err := r.bool()
		if err != nil {
			return nil, err
		}
		if !routed {
			continue
		}
		w, err := r.i32()
		if err != nil {
			return nil, err
		}
		nh, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nh == 0 && i != int(dest) {
			// Forward indexes a routed node's primary next hop
			// unconditionally; only the destination has none.
			return nil, r.fail("column %d node %d is routed with no next hop", dest, i)
		}
		c.Slots[i] = rib.EntrySlot{W: w, Routed: true, NhOff: int32(off), NhLen: int32(nh)}
		off += int64(nh)
		if off > int64(maxFrame) {
			return nil, r.fail("column %d pool overflows", dest)
		}
	}
	poolLen, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if int64(poolLen) != off {
		return nil, r.fail("column %d pool length %d does not match span sum %d", dest, poolLen, off)
	}
	if poolLen == 0 {
		return c, nil
	}
	c.Pool = make([]int32, poolLen)
	for i := range c.Pool {
		v, err := r.i32()
		if err != nil {
			return nil, err
		}
		if v < 0 || int(v) >= nSlots {
			return nil, r.fail("column %d next hop %d out of range [0,%d)", dest, v, nSlots)
		}
		c.Pool[i] = v
	}
	return c, nil
}

func (r *rbuf) announcements() ([]Announcement, error) {
	n, err := r.count(9)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Announcement, n)
	for i := range out {
		addr, err := r.u32()
		if err != nil {
			return nil, err
		}
		l, err := r.u8()
		if err != nil {
			return nil, err
		}
		if l > 32 {
			return nil, r.fail("prefix length %d > 32", l)
		}
		node, err := r.u32()
		if err != nil {
			return nil, err
		}
		p := rib.MakePrefix(addr, l)
		if p.Addr != addr {
			return nil, r.fail("prefix %v not masked to its length", p)
		}
		out[i] = Announcement{Prefix: p, Node: int(node)}
	}
	return out, nil
}

func decodeFull(r *rbuf) (*Full, error) {
	f := &Full{}
	var err error
	if f.Version, err = r.u64(); err != nil {
		return nil, err
	}
	if f.Fingerprint, err = r.u64(); err != nil {
		return nil, err
	}
	nodes, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nodes > maxFrame {
		return nil, r.fail("node count %d too large", nodes)
	}
	f.Nodes = int(nodes)
	if f.Disabled, err = r.bits(); err != nil {
		return nil, err
	}
	if f.Unconverged, err = r.ints(); err != nil {
		return nil, err
	}
	nNames, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if nNames > 0 {
		f.Names = make([]string, nNames)
	}
	for i := range f.Names {
		if f.Names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	if f.Kept, err = r.announcements(); err != nil {
		return nil, err
	}
	if f.Suppressed, err = r.announcements(); err != nil {
		return nil, err
	}
	nCols, err := r.count(9)
	if err != nil {
		return nil, err
	}
	if nCols > 0 {
		f.Columns = make([]*rib.Column, nCols)
	}
	for i := range f.Columns {
		if f.Columns[i], err = r.column(f.Nodes); err != nil {
			return nil, err
		}
	}
	if r.off != len(r.b) {
		return nil, r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return f, nil
}

func decodeDelta(r *rbuf) (*Delta, error) {
	d := &Delta{}
	var err error
	if d.FromVersion, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Version, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Fingerprint, err = r.u64(); err != nil {
		return nil, err
	}
	nTog, err := r.count(5)
	if err != nil {
		return nil, err
	}
	if nTog > 0 {
		d.Toggles = make([]solve.ArcToggle, nTog)
	}
	for i := range d.Toggles {
		arc, err := r.u32()
		if err != nil {
			return nil, err
		}
		down, err := r.bool()
		if err != nil {
			return nil, err
		}
		d.Toggles[i] = solve.ArcToggle{Arc: int(arc), Down: down}
	}
	if d.Unconverged, err = r.ints(); err != nil {
		return nil, err
	}
	base, err := r.u32()
	if err != nil {
		return nil, err
	}
	if base > maxFrame {
		return nil, r.fail("name base %d too large", base)
	}
	d.NameBase = int(base)
	nTail, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if nTail > 0 {
		d.NamesTail = make([]string, nTail)
	}
	for i := range d.NamesTail {
		if d.NamesTail[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	nScratch, err := r.count(9)
	if err != nil {
		return nil, err
	}
	if nScratch > 0 {
		d.Scratch = make([]*rib.Column, nScratch)
	}
	for i := range d.Scratch {
		if d.Scratch[i], err = r.column(0); err != nil {
			return nil, err
		}
	}
	nDiffs, err := r.count(9)
	if err != nil {
		return nil, err
	}
	if nDiffs > 0 {
		d.Diffs = make([]ColumnDiff, nDiffs)
	}
	for i := range d.Diffs {
		dest, err := r.u32()
		if err != nil {
			return nil, err
		}
		converged, err := r.bool()
		if err != nil {
			return nil, err
		}
		nCh, err := r.count(5)
		if err != nil {
			return nil, err
		}
		diff := ColumnDiff{Dest: int(dest), Converged: converged}
		if nCh > 0 {
			diff.Changes = make([]SlotChange, nCh)
		}
		prevNode := -1
		for j := range diff.Changes {
			node, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(node) <= prevNode {
				return nil, r.fail("diff for dest %d not ascending at node %d", dest, node)
			}
			prevNode = int(node)
			ch := SlotChange{Node: int(node)}
			routed, err := r.bool()
			if err != nil {
				return nil, err
			}
			if routed {
				ch.Routed = true
				if ch.W, err = r.i32(); err != nil {
					return nil, err
				}
				nh, err := r.count(4)
				if err != nil {
					return nil, err
				}
				if nh > 0 {
					ch.NextHop = make([]int32, nh)
				}
				for k := range ch.NextHop {
					if ch.NextHop[k], err = r.i32(); err != nil {
						return nil, err
					}
				}
			}
			diff.Changes[j] = ch
		}
		d.Diffs[i] = diff
	}
	if r.off != len(r.b) {
		return nil, r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return d, nil
}

// DecodeRecord decodes one complete frame held in memory. It is the
// fuzz surface: any input must either yield a valid record or an
// error, never a panic and never an allocation larger than the input
// warrants.
func DecodeRecord(data []byte) (*Record, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("replica: frame shorter than its length prefix")
	}
	n := binary.LittleEndian.Uint32(data)
	if n > maxFrame {
		return nil, fmt.Errorf("replica: frame payload %d exceeds limit %d", n, maxFrame)
	}
	if uint64(len(data)) != 4+uint64(n)+4 {
		return nil, fmt.Errorf("replica: frame payload %d does not match %d input bytes", n, len(data))
	}
	payload := data[4 : 4+n]
	crc := binary.LittleEndian.Uint32(data[4+n:])
	return decodePayload(payload, crc, len(data))
}

func decodePayload(payload []byte, crc uint32, wire int) (*Record, error) {
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("replica: frame CRC mismatch")
	}
	if len(payload) < 2 {
		return nil, fmt.Errorf("replica: frame payload shorter than its header")
	}
	if payload[0] != FormatVersion {
		return nil, fmt.Errorf("replica: unsupported format version %d (want %d)", payload[0], FormatVersion)
	}
	rec := &Record{Kind: payload[1], WireBytes: wire}
	r := &rbuf{b: payload[2:]}
	var err error
	switch rec.Kind {
	case KindFull:
		rec.Full, err = decodeFull(r)
	case KindDelta:
		rec.Delta, err = decodeDelta(r)
	case KindSubscribe:
		if rec.SubscribeFrom, err = r.u64(); err == nil && r.off != len(r.b) {
			err = r.fail("%d trailing bytes", len(r.b)-r.off)
		}
	default:
		err = fmt.Errorf("replica: unknown record kind %d", rec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// ReadRecord reads and decodes one frame from a stream. The payload is
// read in bounded chunks, so a hostile length prefix on a short stream
// cannot force a large allocation.
func ReadRecord(br *bufio.Reader) (*Record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("replica: frame payload %d exceeds limit %d", n, maxFrame)
	}
	payload, err := readN(br, int(n))
	if err != nil {
		return nil, fmt.Errorf("replica: short frame payload: %w", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return nil, fmt.Errorf("replica: short frame CRC: %w", err)
	}
	return decodePayload(payload, binary.LittleEndian.Uint32(crcb[:]), 4+int(n)+4)
}

// readN reads exactly n bytes, growing the buffer in bounded chunks so
// allocation tracks bytes actually received.
func readN(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 16
	out := make([]byte, 0, min(n, chunk))
	for len(out) < n {
		step := min(n-len(out), chunk)
		start := len(out)
		out = append(out, make([]byte, step)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
