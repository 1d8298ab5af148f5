package replica

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"metarouting/internal/rib"
	"metarouting/internal/solve"
)

// randomRoutes draws one column's content over n nodes toward dest, in
// mkColumn's form. emptyPages forces that share of the pages entirely
// unrouted (the destination's own page excepted); ecmp is the chance a
// routed node carries a multi-hop span.
func randomRoutes(r *rand.Rand, n, dest int, emptyPages, ecmp float64) [][]int32 {
	routes := make([][]int32, n)
	empty := make(map[int]bool)
	for pi := 0; pi <= (n-1)>>rib.PageShift; pi++ {
		if pi != dest>>rib.PageShift && r.Float64() < emptyPages {
			empty[pi] = true
		}
	}
	for u := range routes {
		switch {
		case u == dest:
			routes[u] = []int32{int32(r.Intn(9))}
		case empty[u>>rib.PageShift] || r.Intn(6) == 0:
		default:
			hops := 1
			if r.Float64() < ecmp {
				hops += 1 + r.Intn(4)
			}
			routes[u] = []int32{int32(r.Intn(300))}
			for k := 0; k < hops; k++ {
				routes[u] = append(routes[u], int32(r.Intn(n)))
			}
		}
	}
	return routes
}

// randomColumns draws a snapshot's worth of columns over n nodes: the
// first destination sits on a page boundary when there is one, one
// column is unconverged, one is mostly empty pages.
func randomColumns(r *rand.Rand, n int) []*rib.PagedColumn {
	dests := []int{0, n - 1, r.Intn(n)}
	if n > rib.PageSize {
		dests[0] = rib.PageSize * (1 + r.Intn((n-1)>>rib.PageShift))
	}
	cols := make([]*rib.PagedColumn, len(dests))
	for i, d := range dests {
		emptyPages := 0.0
		if i == 2 {
			emptyPages = 0.7
		}
		cols[i] = mkColumn(d, i != 1, randomRoutes(r, n, d, emptyPages, 0.3)).Paged()
	}
	return cols
}

// samePaged demands two columns agree page for page, and on the totals
// and flags a follower's state exposes.
func samePaged(t *testing.T, label string, got, want *rib.PagedColumn) {
	t.Helper()
	if got.Dest != want.Dest || got.N != want.N || got.Converged != want.Converged || got.Clean != want.Clean ||
		got.Live() != want.Live() || got.Bytes() != want.Bytes() {
		t.Fatalf("%s: header dest %d n %d converged %v clean %v live %d bytes %d, want %d %d %v %v %d %d", label,
			got.Dest, got.N, got.Converged, got.Clean, got.Live(), got.Bytes(),
			want.Dest, want.N, want.Converged, want.Clean, want.Live(), want.Bytes())
	}
	if !reflect.DeepEqual(got.Pages, want.Pages) {
		t.Fatalf("%s: pages differ", label)
	}
}

// TestCodecMatchesOracle is the codec differential: on random snapshots
// — node counts on, just off and far from page multiples, all-unrouted
// pages, a destination on a page boundary, ECMP spans, unconverged
// columns — a full record and a delta carrying the same columns as
// scratch must come out of the page-direct encoder byte for byte as the
// flatten-append-copy encoder wrote them, in a buffer of exactly the
// frame's size, and decode to what the flat decoder followed by Paged()
// produced, page for page.
func TestCodecMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 63, 64, 65, 70, 128, 129, 200, 257, 1000} {
		for round := 0; round < 4; round++ {
			cols := randomColumns(r, n)
			f := testFull()
			f.Nodes, f.Columns = n, cols
			d := testDelta()
			d.Scratch = cols[:1+r.Intn(len(cols))]

			frames := map[string][2][]byte{
				"full":  {EncodeFull(f), oracleEncodeFull(f, flattened(f.Columns))},
				"delta": {EncodeDelta(d), oracleEncodeDelta(d, flattened(d.Scratch))},
			}
			for kind, fr := range frames {
				got, want := fr[0], fr[1]
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d round %d: %s frame differs from the oracle encoder's (%d vs %d bytes)", n, round, kind, len(got), len(want))
				}
				if cap(got) != len(got) {
					t.Fatalf("n=%d round %d: %s frame of %d bytes sits in a %d-byte buffer; the sizing walk is off", n, round, kind, len(got), cap(got))
				}
				rec, err := DecodeRecord(got)
				if err != nil {
					t.Fatalf("n=%d round %d: decoding the %s frame: %v", n, round, kind, err)
				}
				decoded, sent := d.Scratch, d.Scratch
				if kind == "full" {
					decoded, sent = rec.Full.Columns, f.Columns
				} else {
					decoded = rec.Delta.Scratch
				}
				if len(decoded) != len(sent) {
					t.Fatalf("n=%d round %d: %s carried %d columns, decoded %d", n, round, kind, len(sent), len(decoded))
				}
				for i, c := range sent {
					var w wbuf
					oracleColumn(&w, c.Flatten())
					flat, err := oracleDecodeColumn(&rbuf{b: w.b}, n)
					if err != nil {
						t.Fatalf("n=%d round %d: oracle decoder refused column %d: %v", n, round, c.Dest, err)
					}
					samePaged(t, kind+" column", decoded[i], flat.Paged())
				}
			}
		}
	}
}

// TestColumnDecodeMatchesOracleOnDamage runs both column decoders over
// every truncation of a column's bytes and over every single-byte
// overwrite with a few telling values: they must accept the same inputs
// with page-identical results and refuse the rest with the same error,
// text and offset included.
func TestColumnDecodeMatchesOracleOnDamage(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = rib.PageSize + 6
	var w wbuf
	w.column(mkColumn(rib.PageSize, true, randomRoutes(r, n, rib.PageSize, 0, 0.4)).Paged())
	valid := w.b
	check := func(label string, b []byte, nodes int) {
		t.Helper()
		got, gerr := (&rbuf{b: b}).column(nodes)
		flat, werr := oracleDecodeColumn(&rbuf{b: b}, nodes)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: page decoder says %v, flat decoder says %v", label, gerr, werr)
		}
		if gerr == nil {
			samePaged(t, label, got, flat.Paged())
		}
	}
	check("intact", valid, n)
	check("intact, node count unknown", valid, 0)
	check("node count mismatch", valid, n+1)
	for cut := 0; cut < len(valid); cut++ {
		check("truncated", valid[:cut], n)
	}
	for at := range valid {
		for _, v := range []byte{0, 1, 2, 0x7f, 0x80, 0xff} {
			if valid[at] == v {
				continue
			}
			b := append([]byte(nil), valid...)
			b[at] = v
			check("overwritten", b, n)
		}
	}
	for name, c := range badColumns() {
		var w wbuf
		oracleColumn(&w, c)
		check(name, w.b, 2)
	}
}

// goldenFull and goldenDelta are the records behind testdata/*.hex: a
// 70-node snapshot (a full page and a partial one; destination 64 on
// the page boundary, its column unconverged with page 0 all but empty)
// and the delta that follows it.
func goldenFull() *Full {
	a, b := goldenRoutes()
	return &Full{
		Version: 3, Fingerprint: 0x0123456789abcdef, Nodes: 70,
		Disabled:    []bool{false, true, false, false, false, false, false, false, false, true, true},
		Unconverged: []int{64},
		Names:       []string{"0", "(1, 2)", "inf", "3", "four"},
		Kept:        []Announcement{{Prefix: rib.MakePrefix(10<<24, 8), Node: 0}, {Prefix: rib.MakePrefix(10<<24|64, 32), Node: 64}},
		Suppressed:  []Announcement{{Prefix: rib.MakePrefix(10<<24|1, 32), Node: 0}},
		Columns:     []*rib.PagedColumn{mkColumn(0, true, a).Paged(), mkColumn(64, false, b).Paged()},
	}
}

func goldenDelta() *Delta {
	a, _ := goldenRoutes()
	a[5], a[69] = nil, []int32{4, 68, 3}
	return &Delta{
		FromVersion: 3, Version: 4, Fingerprint: 0x0123456789abcdef,
		Toggles:  []solve.ArcToggle{{Arc: 1, Down: false}, {Arc: 7, Down: true}},
		NameBase: 5, NamesTail: []string{"(5, 5)"},
		Scratch: []*rib.PagedColumn{mkColumn(0, true, a).Paged()},
		Diffs: []ColumnDiff{{Dest: 64, Converged: true, Changes: []SlotChange{
			{Node: 2, Routed: true, W: 5, NextHop: []int32{63, 64}},
			{Node: 63, Routed: false},
			{Node: 64, Routed: true, W: 0},
		}}},
	}
}

func goldenRoutes() (a, b [][]int32) {
	const n = 70
	a, b = make([][]int32, n), make([][]int32, n)
	a[0] = []int32{0}
	for u := 1; u < n; u++ {
		if u%9 == 4 {
			continue
		}
		a[u] = []int32{int32(u % 5), int32(u - 1)}
		if u%4 == 0 {
			a[u] = append(a[u], int32(u/2))
		}
	}
	b[63] = []int32{3, 64}
	b[64] = []int32{0}
	for u := 65; u < n; u++ {
		b[u] = []int32{int32(u % 3), 64}
	}
	return a, b
}

// TestGoldenFrames pins the wire format to bytes on disk: the two hex
// files were written by the flat-arena encoder at the commit before the
// codec moved onto pages, from these same records. Today's encoder must
// reproduce them, and today's decoder must read them back to the
// records and apply them in sequence.
func TestGoldenFrames(t *testing.T) {
	read := func(name string) []byte {
		raw, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return b
	}
	full, delta := read("full_tiny.hex"), read("delta_tiny.hex")
	if got := EncodeFull(goldenFull()); !bytes.Equal(got, full) {
		t.Fatalf("full frame drifted from testdata/full_tiny.hex:\n got %x\nwant %x", got, full)
	}
	if got := EncodeDelta(goldenDelta()); !bytes.Equal(got, delta) {
		t.Fatalf("delta frame drifted from testdata/delta_tiny.hex:\n got %x\nwant %x", got, delta)
	}
	rf, err := DecodeRecord(full)
	if err != nil || !reflect.DeepEqual(rf.Full, goldenFull()) {
		t.Fatalf("golden full frame decodes to %+v (%v)", rf, err)
	}
	rd, err := DecodeRecord(delta)
	if err != nil || !reflect.DeepEqual(rd.Delta, goldenDelta()) {
		t.Fatalf("golden delta frame decodes to %+v (%v)", rd, err)
	}
	st, err := ApplyFull(rf.Full)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = ApplyDelta(st, rd.Delta); err != nil || st.Version != 4 {
		t.Fatalf("golden delta on golden full: %+v, %v", st, err)
	}
}

// TestReadRecordBoundedAlloc holds readN to its bound: the buffer tracks
// the bytes the stream delivered, never the length the frame claimed. A
// frame claiming maxFrame bytes on a 100-byte stream must fail having
// allocated under 256 KiB; on a 1 MiB stream, under 4 MiB + 256 KiB —
// the buffer that ran dry is at most twice what had arrived, and the
// doubling series before it sums to no more than that again.
func TestReadRecordBoundedAlloc(t *testing.T) {
	hdr := []byte{0, 0, 0, 0x10} // maxFrame claimed
	for _, tc := range []struct{ stream, limit int }{
		{100, 256 << 10},
		{1 << 20, 4<<20 + 256<<10},
	} {
		stream := append(append([]byte(nil), hdr...), make([]byte, tc.stream)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadRecord(bufio.NewReader(bytes.NewReader(stream)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "short frame payload") {
			t.Fatalf("%d-byte stream: got %v, want a short-payload error", tc.stream, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(tc.limit) {
			t.Fatalf("%d-byte stream claiming %d: allocated %d B, want < %d", tc.stream, maxFrame, got, tc.limit)
		}
	}
}

// TestApplyFullSharesDecodedPages: a follower's bootstrap adopts the
// pages the decoder laid out — no re-paging pass, no second copy of the
// columns.
func TestApplyFullSharesDecodedPages(t *testing.T) {
	rec, err := DecodeRecord(EncodeFull(goldenFull()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ApplyFull(rec.Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Full.Columns {
		got := st.Cols[c.Dest]
		if got == nil || len(got.Pages) != len(c.Pages) {
			t.Fatalf("destination %d: state holds %v", c.Dest, got)
		}
		for pi := range c.Pages {
			if got.Pages[pi] != c.Pages[pi] {
				t.Fatalf("destination %d page %d was copied, not adopted", c.Dest, pi)
			}
		}
	}
	// The same holds for a delta's scratch columns.
	rd, err := DecodeRecord(EncodeDelta(goldenDelta()))
	if err != nil {
		t.Fatal(err)
	}
	next, err := ApplyDelta(st, rd.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if sc := rd.Delta.Scratch[0]; next.Cols[sc.Dest].Pages[0] != sc.Pages[0] {
		t.Fatal("scratch column was copied, not adopted")
	}
}
