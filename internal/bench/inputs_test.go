package bench

import (
	"bytes"
	"testing"

	"metarouting/internal/serve/wire"
)

// goldenHash pins the inputs of (query-storm-10k scaled to 200 nodes,
// seed 1). It changes only when input generation changes — which
// invalidates every recorded baseline, so it should be deliberate.
const goldenHash = uint64(0x71136e13f7a0bfc7)

func TestSameSeedSameInputs(t *testing.T) {
	a := testInputs(t, "query-storm-10k", 1)
	b := testInputs(t, "query-storm-10k", 1)
	if a.Hash() != b.Hash() {
		t.Fatalf("seed 1 hashed %016x then %016x", a.Hash(), b.Hash())
	}
	if a.Hash() != goldenHash {
		t.Errorf("inputs for seed 1 hash to %#x, golden is %#x: input generation changed", a.Hash(), goldenHash)
	}
	for i := range a.Storms {
		if !bytes.Equal(a.Storms[i].FailBody, b.Storms[i].FailBody) {
			t.Fatalf("storm %d differs between two generations of seed 1", i)
		}
	}
	c := testInputs(t, "query-storm-10k", 2)
	if c.Hash() == a.Hash() {
		t.Error("seeds 1 and 2 generated identical inputs")
	}
	same := 0
	for i := range a.Storms {
		if bytes.Equal(a.Storms[i].FailBody, c.Storms[i].FailBody) {
			same++
		}
	}
	if same > len(a.Storms)/10 {
		t.Errorf("%d of %d storms identical across seeds", same, len(a.Storms))
	}
}

func TestStormsPartitionTheArcs(t *testing.T) {
	in := testInputs(t, "storm-policy-2k", 3)
	seen := map[int]bool{}
	for i, s := range in.Storms {
		if len(s.Arcs) != StormArcs {
			t.Fatalf("storm %d has %d arcs", i, len(s.Arcs))
		}
		for _, a := range s.Arcs {
			if a < 0 || a >= len(in.Graph.Arcs) || seen[a] {
				t.Fatalf("storm %d: arc %d out of range or in two storms", i, a)
			}
			seen[a] = true
		}
	}
	if want := `{"events":[{"arc":`; !bytes.HasPrefix(in.Storms[0].FailBody, []byte(want)) {
		t.Errorf("fail body %q", in.Storms[0].FailBody)
	}
}

func TestPrefixSetAndQueryMix(t *testing.T) {
	in := testInputs(t, "query-quiet-10k", 1)
	kept, supp := in.Oracle.Len(), len(in.Oracle.Suppressed())
	if kept+supp != in.W.Prefixes {
		t.Fatalf("%d kept + %d suppressed, want %d announced", kept, supp, in.W.Prefixes)
	}
	// A quarter is generated as same-anchor more-specifics; a few
	// escape suppression behind a differently anchored cover.
	if supp < in.W.Prefixes/8 || supp > in.W.Prefixes/4 {
		t.Errorf("%d of %d suppressed, want close to a quarter", supp, in.W.Prefixes)
	}
	for _, po := range in.Announced {
		if po.Prefix.Len < 12 || po.Prefix.Len > 28 {
			t.Fatalf("prefix %v outside /12–/28", po.Prefix)
		}
	}
	if in.Uncovered == 0 {
		t.Error("no uncovered address in the plans")
	}
	kinds := map[byte]int{}
	for _, c := range in.Plans[0] {
		for _, g := range c.Gets {
			kinds[g.Q.Kind]++
		}
		if len(c.Batch) != BatchQueries {
			t.Fatalf("batch of %d", len(c.Batch))
		}
		qs, err := wire.DecodeQueryRequest(c.Frame, nil)
		if err != nil || len(qs) != BatchQueries || qs[17] != c.Batch[17] {
			t.Fatalf("batch frame does not decode to the batch: %v", err)
		}
	}
	n := len(in.Plans[0])
	if kinds[wire.QueryDest] != 4*n || kinds[wire.QueryAddr] != 3*n || kinds[wire.QueryPrefix] != n {
		t.Errorf("GET mix %v over %d cycles, want 4 dest / 3 addr / 1 prefix per cycle", kinds, n)
	}
	if got := string(routePath(wire.Query{Kind: wire.QueryPrefix, From: 7, Arg: 10<<24 | 1<<16, PLen: 16})); got != "/v1/route?from=7&prefix=10.1.0.0/16" {
		t.Errorf("routePath = %q", got)
	}
}
