package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"metarouting/internal/core"
)

// TestLoadTopologyChecksLabels: -topo files come from outside, so a
// label the algebra has no function for is an error naming the arc, not
// an index panic in the solver.
func TestLoadTopologyChecksLabels(t *testing.T) {
	a, err := core.InferString("hops(8)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, topo, want string // want "" = loads
	}{
		{"in range", "nodes 3\narc 1 0 0\narc 2 1 0\n", ""},
		{"by function name", "nodes 2\narc 1 0 " + a.OT.F.Fns[0].Name + "\n", ""},
		{"past the function set", "nodes 3\narc 1 0 0\narc 2 1 99\n", "arc 1 (2→1) label 99 out of range"},
		{"negative", "nodes 2\narc 1 0 -1\n", "label out of range"},
		{"beyond int32", "nodes 2\narc 1 0 4294967296\n", "label out of range"},
	} {
		path := filepath.Join(t.TempDir(), "topo")
		if err := os.WriteFile(path, []byte(tc.topo), 0o600); err != nil {
			t.Fatal(err)
		}
		g, err := loadTopology(path, a)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, graph %v, want an error naming %q", tc.name, err, g, tc.want)
		}
	}
}

// TestSolveDefaultOriginFits runs the command itself (the test binary
// re-executed as metaroute): a product of unbounded carriers has no
// enumerable ⊥, and its default origin must come from its factors — the
// pair (0, 0), not the scalar 0 that used to reach a pair function and
// panic. Where a factor has no ⊥ to offer the command must say so and
// exit, still without a panic.
func TestSolveDefaultOriginFits(t *testing.T) {
	if args := os.Getenv("METAROUTE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"metaroute"}, strings.Split(args, "\n")...)
		main()
		return
	}
	run := func(expr string) (string, error) {
		return metaroute("-expr", expr, "-random", "6", "-solve")
	}
	out, err := run("lex(hops(0), hops(0))")
	if err != nil || !strings.Contains(out, "origin (0, 0)") || !strings.Contains(out, "bellman-ford: converged=true") {
		t.Fatalf("lex(hops(0), hops(0)) -solve: err %v, output:\n%s", err, out)
	}
	out, err = run("lex(tags(2), hops(0))")
	if err == nil || !strings.Contains(out, "has no default origin") || strings.Contains(out, "panic") {
		t.Fatalf("lex(tags(2), hops(0)) -solve: want a clean error, got err %v, output:\n%s", err, out)
	}
	// A sampled function set gives random labels nothing to index: this
	// used to die in the engine with "index out of range [1] with length 0".
	out, err = run("scoped(hops(0), delay(0,4))")
	if err == nil || !strings.Contains(out, "function set is not enumerable; labels have no meaning") || strings.Contains(out, "panic") {
		t.Fatalf("scoped(hops(0), delay(0,4)) -solve: want a clean error, got err %v, output:\n%s", err, out)
	}
}

// metaroute runs the command with args by re-executing the test binary
// into TestSolveDefaultOriginFits's entry branch, which calls main, and
// returns its combined output.
func metaroute(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestSolveDefaultOriginFits$")
	cmd.Env = append(os.Environ(), "METAROUTE_TEST_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestNoEngineFlag: the backend is the algebra's, so the command offers
// no flag to choose it and rejects -engine as an unknown flag.
func TestNoEngineFlag(t *testing.T) {
	out, err := metaroute("-h")
	if err != nil || !strings.Contains(out, "-expr") || strings.Contains(out, "-engine") {
		t.Fatalf("-h: err %v, want a flag list without -engine:\n%s", err, out)
	}
	out, err = metaroute("-engine", "tiered", "-expr", "unit")
	if err == nil || !strings.Contains(out, "flag provided but not defined: -engine") {
		t.Fatalf("-engine tiered: err %v, want it rejected as undefined:\n%s", err, out)
	}
}

// TestEngineLineNamesTheAlgebrasBackend: the engine line reports what
// exec.For picked — compiled tables for the policy product and for the
// query workloads' 8 448-element lex product, whose rank composes from
// its leaves', and the tiered backend with its intern counts for a lex
// product over a leaf past AutoLimit.
func TestEngineLineNamesTheAlgebrasBackend(t *testing.T) {
	for _, tc := range []struct{ expr, want string }{
		{"scoped(bw(4), delay(64,4))", "engine: compiled\n"},
		{"lex(delay(255,3), hops(32))", "engine: compiled\n"},
		{"lex(delay(8191,2), hops(4))", "engine: tiered ("},
	} {
		out, err := metaroute("-expr", tc.expr, "-solve", "-random", "8", "-seed", "3")
		if err != nil || !strings.Contains(out, tc.want) {
			t.Errorf("%s -solve: err %v, want %q in:\n%s", tc.expr, err, tc.want, out)
		}
	}
}
