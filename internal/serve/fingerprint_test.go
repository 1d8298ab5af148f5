package serve

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"metarouting/internal/graph"
)

// TestFingerprintGolden pins the topology fingerprint to values computed
// by the word-at-a-time implementation it replaced: followers compare
// the value against the one in every record and logs store it, so it
// must not drift. The scale-free case spans several hash chunks.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"no arcs", graph.MustNew(3, nil), 0xd71e358174147ca6},
		{"four arcs", graph.MustNew(4, []graph.Arc{{From: 0, To: 1, Label: 2}, {From: 1, To: 0, Label: 0},
			{From: 1, To: 2, Label: 1}, {From: 3, To: 2, Label: 5}}), 0x8feda9a96b7043a1},
		{"scale-free 300", graph.ScaleFree(rand.New(rand.NewSource(17)), 300, 2, graph.UniformLabels(4)), 0xe91d417b74f682da},
	} {
		if got := fingerprintGraph(tc.g); got != tc.want {
			t.Errorf("%s: fingerprint %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

// TestFnvWordMatchesHashFnv: the word fold is hash/fnv's FNV-64a over
// the word's little-endian bytes, for words of every byte length and
// with zero bytes anywhere.
func TestFnvWordMatchesHashFnv(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	words := []uint64{0, 1, 0xff, 0x100, 0x010000, 0xff00ff00ff00ff00, 1 << 63, ^uint64(0)}
	for i := 0; i < 2000; i++ {
		words = append(words, r.Uint64()>>(8*r.Intn(8))&^(0xff<<(8*r.Intn(8))))
	}
	ref := fnv.New64a()
	h := uint64(fnvOffset64)
	var buf [8]byte
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		if h = fnvWord(h, v); h != ref.Sum64() {
			t.Fatalf("after word %d (%#x): %016x, hash/fnv says %016x", i, v, h, ref.Sum64())
		}
	}
}
