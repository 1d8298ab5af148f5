package scenario

import (
	"strings"
	"testing"

	"metarouting/internal/exec"
	"metarouting/internal/value"
)

const failoverScenario = `
# failover drill
expr   delay(64, 4)
nodes  3
arc    1 0 +1
arc    2 1 +1
arc    2 0 +4
dest   0
origin 0
event  50 fail 1 0
`

func TestParseAndRun(t *testing.T) {
	s, err := Parse(strings.NewReader(failoverScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Expr != "delay(64, 4)" || s.Graph.N != 3 || len(s.Events) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if !s.Events[0].Fail || s.Graph.Arcs[s.Events[0].Arc].From != 1 {
		t.Fatalf("event wrong: %+v", s.Events[0])
	}
	out := s.Run(1, 0)
	if !out.Converged {
		t.Fatalf("scenario must converge: %s", out.Describe())
	}
	// After the 1→0 failure, node 1 routes via 2? No — node 1 has no
	// other exit; it must withdraw, and node 2 must take the +4 backup.
	if out.Routed[1] {
		t.Fatalf("node 1 must withdraw after losing its only exit: %s", out.Describe())
	}
	if !out.Routed[2] || out.Weights[2] != 4 {
		t.Fatalf("node 2 must take the backup: %s", out.Describe())
	}
}

func TestParsePairOrigin(t *testing.T) {
	src := `
expr   scoped(bw(4), delay(16,2))
nodes  2
arc    1 0 0
dest   0
origin (4, 0)
`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Origin != (value.Pair{A: 4, B: 0}) {
		t.Fatalf("origin = %v", s.Origin)
	}
	out := s.Run(2, 0)
	if !out.Converged || !out.Routed[1] {
		t.Fatalf("must route: %s", out.Describe())
	}
}

func TestParseNestedPairOrigin(t *testing.T) {
	v, err := parseValue("((3,0),7)")
	if err != nil {
		t.Fatal(err)
	}
	want := value.Pair{A: value.Pair{A: 3, B: 0}, B: 7}
	if v != want {
		t.Fatalf("parsed %v, want %v", v, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"nodes 2\narc 1 0 0\ndest 0\norigin 0\n", "missing expr"},
		{"expr delay(4,1)\ndest 0\norigin 0\n", "missing nodes"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\n", "missing origin"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 zap\ndest 0\norigin 0\n", "unknown arc label"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 9\norigin 0\n", "out of range"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\norigin 0\nevent 5 fail 0 1\n", "missing arc"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\norigin 0\nevent 5 boom 1 0\n", "fail or up"},
		{"expr nosuch(1)\nnodes 2\narc 1 0 0\ndest 0\norigin 0\n", "unknown base"},
		{"expr delay(4,1)\nnodes 2\nfrob\n", "unknown directive"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\norigin (1\n", "unbalanced"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\norigin (1)\n", "top-level comma"},
		// Hardening found by the fuzz target: each of these previously
		// panicked or hung inside Run instead of erroring in Parse.
		{"expr delay(4,1)\nnodes 2\narc 1 0 99\ndest 0\norigin 0\n", "out of range"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 -7\ndest 0\norigin 0\n", "out of range"},
		{"expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\norigin 0\nevent -5 fail 1 0\n", "must be ≥ 0"},
		{"expr delay(4,1)\nnodes 99999999\narc 1 0 0\ndest 0\norigin 0\n", "cap"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want mention of %q", c.src, err, c.want)
		}
	}
}

// TestParseRejectsMisfitOrigin: an origin literal that is not a weight
// of the algebra must fail in Parse whichever backend the algebra would
// run on — compiled (finite, with leaves within AutoLimit), tiered (a
// finite leaf past AutoLimit) or an interning backend over an infinite carrier, where
// only the probe of the order and arc functions can tell.
func TestParseRejectsMisfitOrigin(t *testing.T) {
	for _, tc := range []struct {
		expr string
		mode exec.Mode
		bad  string
		good string
	}{
		{"lex(delay(8,2), hops(4))", exec.ModeCompiled, "7", "(0,0)"},
		{"lex(delay(8,2), hops(4))", exec.ModeCompiled, "(9,0)", "(8,4)"},
		{"lex(delay(255,3), hops(32))", exec.ModeCompiled, "7", "(0,0)"},
		{"lex(delay(8191,2), hops(4))", exec.ModeTiered, "7", "(0,0)"},
		{"lex(delay(0,2), hops(4))", exec.ModeTiered, "7", "(0,0)"},
		{"delay(0,2)", exec.ModeTiered, "(1,2)", "0"},
	} {
		src := "expr " + tc.expr + "\nnodes 2\narc 1 0 0\ndest 0\norigin "
		if _, err := Parse(strings.NewReader(src + tc.bad + "\n")); err == nil ||
			!strings.Contains(err.Error(), "scenario: origin: "+strings.ReplaceAll(tc.bad, ",", ", ")) {
			t.Errorf("%s origin %s: err = %v, want the origin refused by name", tc.expr, tc.bad, err)
		}
		s, err := Parse(strings.NewReader(src + tc.good + "\n"))
		if err != nil {
			t.Errorf("%s origin %s: %v", tc.expr, tc.good, err)
			continue
		}
		if got := s.Engine.Mode(); got != tc.mode {
			t.Errorf("%s: engine %s, want %s (the case no longer covers that backend)", tc.expr, got, tc.mode)
		}
	}
}

func TestLabelResolutionByName(t *testing.T) {
	src := `
expr delay(8, 2)
nodes 2
arc 1 0 +2
dest 0
origin 0
`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// +2 is the second delay function (index 1).
	if s.Graph.Arcs[0].Label != 1 {
		t.Fatalf("label = %d", s.Graph.Arcs[0].Label)
	}
}

// FuzzScenarioParse: the scenario parser must never panic, whatever the
// input (seed corpus runs in normal test mode).
func FuzzScenarioParse(f *testing.F) {
	f.Add(failoverScenario)
	f.Add("expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\norigin ((1,2),(3,4))\n")
	f.Add("nodes\n")
	f.Add("arc a b c\n")
	f.Add("event 1 2 3\n")
	f.Add("origin ((((\n")
	f.Add("expr delay(4,1)\nnodes 2\narc 1 0 99\ndest 0\norigin 0\n")
	f.Add("expr delay(4,1)\nnodes 2\narc 1 0 0\ndest 0\norigin 0\nevent -9223372036854775808 fail 1 0\n")
	f.Add("expr delay(4,1)\nnodes 999999999\ndest 0\norigin 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		// Anything accepted must be runnable without panicking.
		s.Run(1, 200)
	})
}

func TestSortedEvents(t *testing.T) {
	src := `
expr   delay(64, 4)
nodes  3
arc    1 0 +1
arc    2 1 +1
arc    2 0 +4
dest   0
origin 0
event  200 up   1 0
event  50  fail 1 0
event  90  fail 2 0
`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	evs := s.SortedEvents()
	if len(evs) != 3 || evs[0].At != 50 || evs[1].At != 90 || evs[2].At != 200 {
		t.Fatalf("events not in firing order: %+v", evs)
	}
	// The original slice keeps declaration order.
	if s.Events[0].At != 200 {
		t.Fatal("SortedEvents must not reorder the scenario in place")
	}
}
