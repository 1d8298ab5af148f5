package validate

// The committed form of examples/gadget (satellite): the corpus guards
// the convergence theory in both directions. Strictly-increasing cases
// must quiesce within the Daggitt–Griffin bound; the BAD GADGET and
// wedgie cases must still be oscillating when a 4× multiple of that
// bound fires. Both engines run the same corpus.

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/graph"
	"metarouting/internal/prop"
	"metarouting/internal/protocol"
	"metarouting/internal/telemetry"
)

func TestCorpusSerial(t *testing.T) {
	results, err := RunCorpus(context.Background(), nil, Corpus(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Failures(results) {
		t.Errorf("%s (%s): %s [rounds=%d bound=%d steps=%d]",
			r.Case, r.Expect, r.Detail, r.Rounds, r.Bound, r.Steps)
	}
	if len(results) < 12 {
		t.Fatalf("corpus too small: %d cases", len(results))
	}
}

func TestCorpusParallel(t *testing.T) {
	p := protocol.NewParallel(4)
	defer p.Close()
	results, err := RunCorpus(context.Background(), p, Corpus(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Failures(results) {
		t.Errorf("%s (%s): %s [rounds=%d bound=%d steps=%d]",
			r.Case, r.Expect, r.Detail, r.Rounds, r.Bound, r.Steps)
	}
}

// TestGadgetOscillationRegression pins the theory's negative direction
// across seeds: the SPP gadget algebra on BAD GADGET must never quiesce
// within OscFactor× the increasing-algebra round bound. A regression
// here means either the simulator stopped modelling asynchrony or the
// algebra stopped being a counterexample — both are release blockers.
func TestGadgetOscillationRegression(t *testing.T) {
	badG, _ := graph.BadGadgetArcs()
	for seed := int64(1); seed <= 5; seed++ {
		c := Case{
			Name: "badgadget", Expr: "gadget", Graph: badG, Dest: 0,
			Seed: seed, Expect: ExpectOscillate,
		}
		r, err := Check(context.Background(), nil, c)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Pass {
			t.Errorf("seed %d: %s (rounds=%d)", seed, r.Detail, r.Rounds)
		}
		if r.Rounds < OscFactor*c.Bound() {
			t.Errorf("seed %d: cutoff never fired (rounds=%d)", seed, r.Rounds)
		}
	}
}

// TestGadgetTheoryBothWays: the same algebra converges when the
// topology removes the preference cycle, and the same topology
// converges under an increasing algebra — oscillation needs both the
// non-increasing algebra and the cyclic preferences.
func TestGadgetTheoryBothWays(t *testing.T) {
	directOnly := graph.MustNew(4, []graph.Arc{
		{From: 1, To: 0, Label: 0}, {From: 2, To: 0, Label: 0}, {From: 3, To: 0, Label: 0},
	})
	// Non-increasing algebra, acyclic preferences: Check would reject
	// ExpectQuiesce for a non-increasing expr (the property gate), so
	// run the simulator directly.
	out := runDirect(t, "gadget", directOnly, 1)
	if !out.Converged {
		t.Error("gadget algebra on direct-only topology must converge")
	}

	badG, _ := graph.BadGadgetArcs()
	c := Case{
		Name: "increasing-on-gadget-topology", Expr: "delay(32,2)",
		Graph: badG, Dest: 0, Seed: 1, Expect: ExpectQuiesce,
	}
	r, err := Check(context.Background(), nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Errorf("increasing algebra on the gadget topology: %s", r.Detail)
	}
}

func runDirect(t *testing.T, expr string, g *graph.Graph, seed int64) *protocol.Outcome {
	t.Helper()
	c := Case{Name: "direct", Expr: expr, Graph: g, Dest: 0, Seed: seed, Expect: ExpectOscillate}
	// Reuse Check's plumbing by asking for oscillation and reading the
	// raw outcome fields back out of the result.
	r, err := Check(context.Background(), nil, c)
	if err != nil {
		t.Fatal(err)
	}
	return &protocol.Outcome{Converged: r.Converged}
}

// TestCheckRejectsTheoryMismatch: the property gate refuses a Case whose
// expectation contradicts the inferred I status — such a case is a bug
// in the corpus, not a finding about the simulator.
func TestCheckRejectsTheoryMismatch(t *testing.T) {
	badG, _ := graph.BadGadgetArcs()
	_, err := Check(context.Background(), nil, Case{
		Name: "x", Expr: "gadget", Graph: badG, Dest: 0, Expect: ExpectQuiesce,
	})
	if err == nil || !strings.Contains(err.Error(), "not strictly increasing") {
		t.Fatalf("want property-gate error, got %v", err)
	}
	_, err = Check(context.Background(), nil, Case{
		Name: "y", Expr: "hops(8)", Graph: badG, Dest: 0, Expect: ExpectOscillate,
	})
	if err == nil || !strings.Contains(err.Error(), "theory forbids") {
		t.Fatalf("want property-gate error, got %v", err)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a, b := Corpus(7), Corpus(7)
	if len(a) != len(b) {
		t.Fatal("corpus size depends on more than the seed")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Seed != b[i].Seed ||
			len(a[i].Events) != len(b[i].Events) ||
			a[i].Graph.N != b[i].Graph.N || len(a[i].Graph.Arcs) != len(b[i].Graph.Arcs) {
			t.Fatalf("case %d differs between identically-seeded corpora", i)
		}
	}
}

func TestCorpusTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	cases := Corpus(3)[:4]
	if _, err := RunCorpus(context.Background(), nil, cases, reg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"validate_quiescence_time", "validate_flaps", "validate_messages", "validate_cases_pass"} {
		if !strings.Contains(sb.String(), metric) {
			t.Errorf("telemetry export missing %s", metric)
		}
	}
}

func TestCorpusGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := graph.Random(r, 20, 0.3, graph.UniformLabels(1))

	storm := FlapStorm(r, g, 5, 3, 100, 60)
	if len(storm) != 5*3*2 {
		t.Fatalf("flap storm: want 30 events, got %d", len(storm))
	}
	for _, ev := range storm {
		if ev.At < 100 || ev.Arc < 0 || ev.Arc >= len(g.Arcs) {
			t.Fatalf("flap storm event out of range: %+v", ev)
		}
	}

	churn := NodeChurn(r, g, 0, 2, 2, 50, 80)
	for _, ev := range churn {
		a := g.Arcs[ev.Arc]
		if a.From == 0 && a.To == 0 {
			t.Fatal("node churn touched the destination's self loop")
		}
	}
	if len(churn) == 0 {
		t.Fatal("node churn produced no events")
	}

	cut := PartitionHeal(g, 40, 90)
	if len(cut) == 0 || len(cut)%2 != 0 {
		t.Fatalf("partition/heal: %d events", len(cut))
	}
	h := g.N / 2
	for _, ev := range cut {
		a := g.Arcs[ev.Arc]
		if (a.From < h) == (a.To < h) {
			t.Fatalf("partition cut a same-side arc %+v", a)
		}
	}
}

func TestRoundBound(t *testing.T) {
	if RoundBound(4) != 16 || RoundBound(10) != 100 {
		t.Fatal("round bound is n²")
	}
	c := Case{Graph: graph.MustNew(3, nil), Events: []protocol.LinkEvent{
		{At: 5, Arc: 0, Fail: true}, {At: 5, Arc: 1, Fail: true}, {At: 9, Arc: 0, Fail: false},
	}}
	if c.Epochs() != 3 {
		t.Fatalf("epochs: want 3 (origination + two distinct times), got %d", c.Epochs())
	}
	if c.Bound() != 3*9 {
		t.Fatalf("bound: want 27, got %d", c.Bound())
	}
}

// TestCheckRejectsUnfitDefaultOrigin: a case that names no origin on an
// algebra whose default does not fit its carrier (an infinite product
// with a ⊥-less factor) is an error before the simulator runs, not a
// panic inside an arc function.
func TestCheckRejectsUnfitDefaultOrigin(t *testing.T) {
	const expr = "lex(tags(2), hops(0))"
	a, err := core.InferString(expr)
	if err != nil {
		t.Fatal(err)
	}
	expect := ExpectOscillate
	if a.Props.Holds(prop.ILeft) {
		expect = ExpectQuiesce
	}
	g := graph.Ring(rand.New(rand.NewSource(1)), 5, graph.UniformLabels(a.OT.F.Size()))
	_, err = Check(context.Background(), nil, Case{Name: "z", Expr: expr, Graph: g, Dest: 0, Expect: expect})
	if err == nil || !strings.Contains(err.Error(), "has no default origin") {
		t.Fatalf("want a default-origin error, got %v", err)
	}
}
