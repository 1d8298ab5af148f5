package replica

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"metarouting/internal/rib"
	"metarouting/internal/solve"
)

// maskSizes are the arc counts the mask is checked at: empty, one word
// and its edges, one chunk and its edges, past one directory page
// (16 chunks), and storm-sparse-100k's 399 908 arcs.
var maskSizes = []int{0, 1, 63, 64, 4095, 4096, 4097, 65537, 399908}

// maskCols is the one column the checksum comparisons digest beside the
// mask.
var maskCols = map[int]*rib.PagedColumn{0: mkColumn(0, true, [][]int32{{0}, {1, 0}, nil}).Paged()}

// sameMask reports how m differs from the []bool oracle: its length, its
// count, any bit, its wire bytes against wbuf.bits of the oracle, or the
// state checksum against the leader's Checksum of the oracle.
func sameMask(m *Mask, oracle []bool) error {
	if m.Len() != len(oracle) {
		return fmt.Errorf("mask covers %d arcs, oracle %d", m.Len(), len(oracle))
	}
	count := 0
	for arc, down := range oracle {
		if m.Get(arc) != down {
			return fmt.Errorf("arc %d: mask down=%v, oracle %v", arc, !down, down)
		}
		if down {
			count++
		}
	}
	if m.Count() != count {
		return fmt.Errorf("mask counts %d failed arcs, oracle %d", m.Count(), count)
	}
	var got, want wbuf
	got.mask(m)
	want.bits(oracle)
	if !bytes.Equal(got.b, want.b) {
		return fmt.Errorf("wire bits differ:\n got %x\nwant %x", got.b, want.b)
	}
	st := &State{Disabled: *m, Cols: maskCols}
	if got, want := st.Checksum(), Checksum(oracle, maskCols); got != want {
		return fmt.Errorf("state checksum %08x, leader's %08x", got, want)
	}
	return nil
}

// randomToggles draws up to eight distinct arcs of the oracle, each
// toggled to the state it is not in — the shape Coalesce ships. Half the
// batches cluster within a few hundred arcs, so that several toggles
// land in one chunk.
func randomToggles(r *rand.Rand, oracle []bool) []solve.ArcToggle {
	n := len(oracle)
	k := min(r.Intn(9), n)
	center := r.Intn(n + 1)
	seen := map[int]bool{}
	var ts []solve.ArcToggle
	for len(ts) < k {
		arc := r.Intn(n)
		if r.Intn(2) == 0 {
			arc = min(max(center+r.Intn(512)-256, 0), n-1)
		}
		if !seen[arc] {
			seen[arc] = true
			ts = append(ts, solve.ArcToggle{Arc: arc, Down: !oracle[arc]})
		}
	}
	return ts
}

// maskOf is the mask of v, built from v's wire bytes as ApplyFull builds
// a record's — with the last byte's padding bits set, which the decoder
// ignores and so the mask must drop.
func maskOf(v []bool) Mask {
	var w wbuf
	w.bits(v)
	if r := len(v) % 8; r != 0 {
		w.b[len(w.b)-1] |= 0xff << r
	}
	return unpackMask(w.b[4:], len(v))
}

// maskChain builds an n-arc mask from a random oracle, then derives
// versions from it with toggle and random batches, checking each version
// against the oracle as it is made and — once the chain is built — every
// version against its own snapshot again: a version the later ones wrote
// into shows there.
func maskChain(n, versions int, seed int64, toggle func(*Mask, []solve.ArcToggle) (Mask, error)) error {
	r := rand.New(rand.NewSource(seed))
	oracle := make([]bool, n)
	for i := range oracle {
		oracle[i] = r.Intn(40) == 0
	}
	masks, snaps := []Mask{maskOf(oracle)}, [][]bool{append([]bool(nil), oracle...)}
	if err := sameMask(&masks[0], oracle); err != nil {
		return fmt.Errorf("v0: %w", err)
	}
	for v := 1; v <= versions; v++ {
		ts := randomToggles(r, oracle)
		next, err := toggle(&masks[v-1], ts)
		if err != nil {
			return fmt.Errorf("v%d: %w", v, err)
		}
		for _, t := range ts {
			oracle[t.Arc] = t.Down
		}
		if err := sameMask(&next, oracle); err != nil {
			return fmt.Errorf("v%d: %w", v, err)
		}
		masks, snaps = append(masks, next), append(snaps, append([]bool(nil), oracle...))
	}
	for v := range masks {
		if err := sameMask(&masks[v], snaps[v]); err != nil {
			return fmt.Errorf("v%d, once v%d was built: %w", v, versions, err)
		}
	}
	return nil
}

// toggledInPlace is toggled without the chunk clone: it flips the bits
// of the chunks it shares with its predecessor.
func toggledInPlace(m *Mask, ts []solve.ArcToggle) (Mask, error) {
	next := *m
	for _, t := range ts {
		next.chunk(t.Arc >> chunkShift)[t.Arc>>6&(chunkWords-1)] ^= 1 << (t.Arc & 63)
		if t.Down {
			next.count++
		} else {
			next.count--
		}
	}
	return next, nil
}

// TestMaskMatchesOracle is the mask differential: 32 versions of random
// toggle batches at every size in maskSizes, against a []bool oracle —
// bits, count, wire bytes and state checksum at every version, and every
// earlier version unchanged at the end. The mutant that flips bits in
// place must fail the persistence half at every non-empty size.
func TestMaskMatchesOracle(t *testing.T) {
	toggled := func(m *Mask, ts []solve.ArcToggle) (Mask, error) { return m.toggled(ts) }
	for _, n := range maskSizes {
		if err := maskChain(n, 32, int64(n)+1, toggled); err != nil {
			t.Fatalf("%d arcs: %v", n, err)
		}
		if n == 0 {
			continue
		}
		err := maskChain(n, 32, int64(n)+1, toggledInPlace)
		if err == nil {
			t.Fatalf("%d arcs: the in-place mutant passed", n)
		}
		t.Logf("%d arcs: in-place mutant caught: %v", n, err)
	}
}

// TestMaskToggleRejects: a toggle out of range, one that leaves its arc
// as it was, and an arc named twice — in either direction — fail the
// whole batch, and the mask it was applied to is unchanged.
func TestMaskToggleRejects(t *testing.T) {
	const n = 4097
	oracle := make([]bool, n)
	oracle[7], oracle[4096] = true, true
	m := maskOf(oracle)
	for name, ts := range map[string][]solve.ArcToggle{
		"arc -1":                     {{Arc: -1, Down: true}},
		"arc n":                      {{Arc: 0, Down: true}, {Arc: n, Down: true}},
		"fail a failed arc":          {{Arc: 0, Down: true}, {Arc: 4096, Down: true}},
		"restore a live arc":         {{Arc: 8, Down: false}},
		"the same arc twice":         {{Arc: 8, Down: true}, {Arc: 100, Down: true}, {Arc: 8, Down: true}},
		"an arc failed and restored": {{Arc: 8, Down: true}, {Arc: 8, Down: false}},
		"an arc restored and failed": {{Arc: 7, Down: false}, {Arc: 7, Down: true}},
	} {
		if _, err := m.toggled(ts); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if err := sameMask(&m, oracle); err != nil {
			t.Fatalf("%s: the refused batch changed the mask: %v", name, err)
		}
	}
	if next, err := m.toggled(nil); err != nil || sameMask(&next, oracle) != nil {
		t.Fatalf("no toggles: %v", err)
	}
}

// FuzzMaskToggles applies fuzzer-chosen toggle batches to a mask of one
// of maskSizes arcs, next to a []bool oracle. Byte 0 picks the size;
// then each batch is a count byte (mod 9) and three bytes a toggle: the
// arc is the low 23 bits mod n+2, minus one — so -1 and n occur — and
// the top bit says down. A batch must be refused exactly when the oracle
// says it is invalid, and an accepted one must set its arcs and carry the
// count; at the end every version must match its own oracle snapshot in
// full (sameMask). Past maxFuzzVersions accepted batches the rest of the
// input is ignored, which bounds an exec's cost.
func FuzzMaskToggles(f *testing.F) {
	const maxFuzzVersions = 16
	batch := func(ts ...solve.ArcToggle) []byte {
		out := []byte{byte(len(ts))}
		for _, t := range ts {
			x := t.Arc + 1
			if t.Down {
				x |= 1 << 23
			}
			out = append(out, byte(x), byte(x>>8), byte(x>>16))
		}
		return out
	}
	down := func(arc int) solve.ArcToggle { return solve.ArcToggle{Arc: arc, Down: true} }
	up := func(arc int) solve.ArcToggle { return solve.ArcToggle{Arc: arc} }
	for i, n := range maskSizes {
		seed := []byte{byte(i)}
		if n > 0 {
			last := n - 1
			seed = append(seed, batch(down(0), down(last), down(last/2))...)
			seed = append(seed, batch(up(last), down(last/3+1))...)
			seed = append(seed, batch(up(0), up(last/2), down(last))...)
			seed = append(seed, batch(down(last))...) // refused: already down
			seed = append(seed, batch(up(last), down(last))...)
		}
		f.Add(seed)
	}
	f.Add([]byte{8, 2, 0, 0, 0, 0, 0, 0}) // arc -1 twice
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := maskSizes[int(data[0])%len(maskSizes)]
		oracle := make([]bool, n)
		masks, snaps := []Mask{maskOf(oracle)}, [][]bool{append([]bool(nil), oracle...)}
		for rest := data[1:]; len(rest) > 0 && len(masks) <= maxFuzzVersions; {
			k := int(rest[0] % 9)
			rest = rest[1:]
			var ts []solve.ArcToggle
			valid, seen := true, map[int]bool{}
			for ; k > 0 && len(rest) >= 3; k-- {
				x := int(rest[0]) | int(rest[1])<<8 | int(rest[2])<<16
				rest = rest[3:]
				tg := solve.ArcToggle{Arc: x&(1<<23-1)%(n+2) - 1, Down: x>>23 == 1}
				ts = append(ts, tg)
				valid = valid && tg.Arc >= 0 && tg.Arc < n && !seen[tg.Arc] && oracle[tg.Arc] != tg.Down
				seen[tg.Arc] = true
			}
			next, err := masks[len(masks)-1].toggled(ts)
			if valid != (err == nil) {
				t.Fatalf("batch %v: valid=%v, toggled says %v", ts, valid, err)
			}
			if err != nil {
				continue
			}
			count := masks[len(masks)-1].Count()
			for _, tg := range ts {
				oracle[tg.Arc] = tg.Down
				if next.Get(tg.Arc) != tg.Down {
					t.Fatalf("batch %v: arc %d not toggled", ts, tg.Arc)
				}
				if tg.Down {
					count++
				} else {
					count--
				}
			}
			if next.Count() != count {
				t.Fatalf("batch %v: count %d, want %d", ts, next.Count(), count)
			}
			masks, snaps = append(masks, next), append(snaps, append([]bool(nil), oracle...))
		}
		for v := range masks {
			if err := sameMask(&masks[v], snaps[v]); err != nil {
				t.Fatalf("version %d at the end: %v", v, err)
			}
		}
	})
}
