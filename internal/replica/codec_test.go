package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"metarouting/internal/rib"
	"metarouting/internal/solve"
)

// mkColumn builds a column in canonical layout from per-node content:
// routes[u] == nil means unrouted, otherwise routes[u] is {w, hops...}
// (the destination's entry is just {w}).
func mkColumn(dest int, converged bool, routes [][]int32) *rib.Column {
	c := &rib.Column{Dest: dest, Converged: converged, Slots: make([]rib.EntrySlot, len(routes))}
	for u, r := range routes {
		if r == nil {
			continue
		}
		c.Slots[u] = rib.EntrySlot{W: r[0], Routed: true, NhOff: int32(len(c.Pool)), NhLen: int32(len(r) - 1)}
		c.Pool = append(c.Pool, r[1:]...)
	}
	return c
}

func testFull() *Full {
	return &Full{
		Version:     7,
		Fingerprint: 0xdeadbeefcafef00d,
		Nodes:       4,
		Disabled:    []bool{false, true, false, false, true, false, false, false, true},
		Unconverged: []int{2},
		Names:       []string{"(0, 1)", "(3, 2)", "inf"},
		Kept: []Announcement{
			{Prefix: rib.MakePrefix(10<<24, 8), Node: 0},
			{Prefix: rib.MakePrefix(10<<24|3, 32), Node: 3},
		},
		Suppressed: []Announcement{{Prefix: rib.MakePrefix(10<<24|1, 32), Node: 0}},
		Columns: []*rib.PagedColumn{
			mkColumn(0, true, [][]int32{{0}, {1, 0}, {2, 0, 3}, {1, 0}}).Paged(),
			mkColumn(3, false, [][]int32{nil, {2, 3}, nil, {0}}).Paged(),
		},
	}
}

func testDelta() *Delta {
	return &Delta{
		FromVersion: 7,
		Version:     8,
		Fingerprint: 0xdeadbeefcafef00d,
		Toggles:     []solve.ArcToggle{{Arc: 5, Down: true}, {Arc: 1, Down: false}},
		Unconverged: nil,
		NameBase:    3,
		NamesTail:   []string{"(4, 4)"},
		Scratch:     []*rib.PagedColumn{mkColumn(0, true, [][]int32{{0}, nil, {3, 0, 3}, {1, 0}}).Paged()},
		Diffs: []ColumnDiff{
			{Dest: 3, Converged: true, Changes: []SlotChange{
				{Node: 0, Routed: true, W: 3, NextHop: []int32{1, 2}},
				{Node: 2, Routed: false},
			}},
		},
	}
}

func TestFullRoundTrip(t *testing.T) {
	f := testFull()
	frame := EncodeFull(f)
	rec, err := DecodeRecord(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.Kind != KindFull {
		t.Fatalf("kind = %d, want %d", rec.Kind, KindFull)
	}
	if rec.WireBytes != len(frame) {
		t.Fatalf("WireBytes = %d, want %d", rec.WireBytes, len(frame))
	}
	// NhOff never travels; equality down to the pages means the decoder
	// reconstructed the canonical page-relative offsets exactly.
	if !reflect.DeepEqual(rec.Full, f) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", rec.Full, f)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := testDelta()
	frame := EncodeDelta(d)
	rec, err := DecodeRecord(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.Kind != KindDelta {
		t.Fatalf("kind = %d, want %d", rec.Kind, KindDelta)
	}
	if !reflect.DeepEqual(rec.Delta, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", rec.Delta, d)
	}
	if rec.Version() != 8 {
		t.Fatalf("Version() = %d, want 8", rec.Version())
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	frame := EncodeSubscribe(42)
	rec, err := DecodeRecord(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.Kind != KindSubscribe || rec.SubscribeFrom != 42 {
		t.Fatalf("got kind %d from %d", rec.Kind, rec.SubscribeFrom)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame := EncodeFull(testFull())
	cases := map[string]func([]byte) []byte{
		"truncated frame":  func(b []byte) []byte { return b[:len(b)-5] },
		"truncated prefix": func(b []byte) []byte { return b[:3] },
		"flipped crc":      func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"flipped payload":  func(b []byte) []byte { b[20] ^= 0x40; return b },
		"bad format version": func(b []byte) []byte {
			b[4] = FormatVersion + 1
			return refresh(b)
		},
		"unknown kind": func(b []byte) []byte {
			b[5] = 99
			return refresh(b)
		},
		"trailing bytes": func(b []byte) []byte {
			// Grow the payload by four zero bytes (with a matching length
			// prefix and CRC) so only the semantic trailing-bytes check can
			// reject it.
			n := binary.LittleEndian.Uint32(b)
			grown := append(b[:4+n:4+n], 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(grown, n+4)
			return refresh(append(grown, 0, 0, 0, 0))
		},
		"oversized length prefix": func(b []byte) []byte {
			b[3] = 0xff
			return b
		},
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), frame...))
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("%s: decode accepted corrupt frame", name)
		}
	}
}

// refresh recomputes a frame's CRC after deliberate payload edits, so
// the test exercises the semantic check rather than the checksum.
func refresh(b []byte) []byte {
	n := binary.LittleEndian.Uint32(b)
	binary.LittleEndian.PutUint32(b[4+n:], crc32.ChecksumIEEE(b[4:4+n]))
	return b
}

// badColumns are flat columns no paged column can express, keyed by the
// decoder check that must refuse each; the oracle encoder frames them
// CRC-valid. Dropping the "routed with no next hop" or the next-hop
// range check from the page decoder fails this table (and lets
// FuzzDecodeRecord, which is seeded with the same frames, walk Forward
// off the end of a pool).
func badColumns() map[string]*rib.Column {
	return map[string]*rib.Column{
		"pool length 1 does not match span sum 2": {
			Slots: []rib.EntrySlot{{Routed: true}, {Routed: true, NhLen: 2}},
			Pool:  []int32{0},
		},
		"next hop 7 out of range [0,2)": {
			Slots: []rib.EntrySlot{{Routed: true}, {Routed: true, NhLen: 1}},
			Pool:  []int32{7},
		},
		"next hop -1 out of range [0,2)": {
			Slots: []rib.EntrySlot{{Routed: true}, {Routed: true, NhLen: 1}},
			Pool:  []int32{-1},
		},
		"node 1 is routed with no next hop": {
			Slots: []rib.EntrySlot{{Routed: true}, {Routed: true}},
		},
		"column dest 5 out of range [0,2)": {
			Dest:  5,
			Slots: []rib.EntrySlot{{}, {}},
		},
		"has 1 slots, want 2": {
			Slots: []rib.EntrySlot{{Routed: true}},
		},
		"pool overflows": {
			Slots: []rib.EntrySlot{{Routed: true}, {Routed: true, NhLen: maxFrame + 1}},
		},
	}
}

func TestDecodeRejectsBadColumns(t *testing.T) {
	for want, c := range badColumns() {
		_, err := DecodeRecord(oracleEncodeFull(&Full{Nodes: 2}, []*rib.Column{c}))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("decoding a column whose %s: got %v", want, err)
		}
	}
}

func TestDecodeRejectsNonAscendingDiff(t *testing.T) {
	d := testDelta()
	d.Diffs[0].Changes[1].Node = 0 // duplicate of change 0
	if _, err := DecodeRecord(EncodeDelta(d)); err == nil {
		t.Fatal("decode accepted non-ascending diff nodes")
	}
}

func TestReadRecordStream(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(EncodeFull(testFull()))
	buf.Write(EncodeDelta(testDelta()))
	br := bufio.NewReader(&buf)
	r1, err := ReadRecord(br)
	if err != nil || r1.Kind != KindFull {
		t.Fatalf("first record: %v kind %d", err, r1.Kind)
	}
	r2, err := ReadRecord(br)
	if err != nil || r2.Kind != KindDelta {
		t.Fatalf("second record: %v kind %d", err, r2.Kind)
	}
	if _, err := ReadRecord(br); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestReadRecordBoundsAllocation(t *testing.T) {
	// A stream claiming a 200MB payload but carrying 10 bytes must fail
	// on short read, not allocate 200MB up front. Run with a tight
	// allocation probe: the chunked reader allocates at most one 64KB
	// chunk before the read fails.
	hdr := []byte{0, 0, 0, 0x0c} // 0x0c000000 = 201326592 bytes claimed
	stream := append(hdr, make([]byte, 10)...)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(stream))); err == nil {
			t.Fatal("short stream decoded")
		}
	})
	// bufio.Reader + one chunk + error wrapping stay far below the
	// hundreds of allocations a full-size buffer grow would need.
	if allocs > 20 {
		t.Fatalf("short oversized frame cost %.0f allocs", allocs)
	}
}

func TestChecksumTracksContent(t *testing.T) {
	colsA := map[int]*rib.Column{
		0: mkColumn(0, true, [][]int32{{0}, {1, 0}}),
		1: mkColumn(1, true, [][]int32{{2, 1}, {0}}),
	}
	colsB := map[int]*rib.Column{
		0: mkColumn(0, true, [][]int32{{0}, {1, 0}}),
		1: mkColumn(1, true, [][]int32{{2, 1}, {0}}),
	}
	dis := []bool{false, true}
	if Checksum(dis, colsA) != Checksum(dis, colsB) {
		t.Fatal("identical content hashed differently")
	}
	colsB[1].Pool[0] = 0
	if Checksum(dis, colsA) == Checksum(dis, colsB) {
		t.Fatal("pool change not reflected in checksum")
	}
	if Checksum([]bool{true, true}, colsA) == Checksum(dis, colsA) {
		t.Fatal("disabled mask change not reflected in checksum")
	}
}

func TestDecodeErrorsMentionOffset(t *testing.T) {
	f := testFull()
	cols := flattened(f.Columns)
	cols[0].Pool = cols[0].Pool[:len(cols[0].Pool)-1]
	_, err := DecodeRecord(oracleEncodeFull(f, cols))
	if err == nil {
		t.Fatal("decode accepted pool/span mismatch")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error %q does not locate the fault", err)
	}
}
