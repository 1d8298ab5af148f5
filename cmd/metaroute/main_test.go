package main

import (
	"os"
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
