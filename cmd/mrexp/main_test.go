package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestJSONRecordFields runs the command itself (the test binary
// re-executed as mrexp): each -json line carries the experiment's id,
// title and wall time and nothing else — no engine field, since the
// backend is each algebra's own pick and no flag sets it.
func TestJSONRecordFields(t *testing.T) {
	if args := os.Getenv("MREXP_TEST_ARGS"); args != "" {
		os.Args = append([]string{"mrexp"}, strings.Split(args, "\n")...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestJSONRecordFields$")
	cmd.Env = append(os.Environ(), "MREXP_TEST_ARGS=-json\n-only\nE1,E2")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("mrexp -json -only E1,E2: %v\n%s", err, out)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // the child test binary's own PASS line
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		keys := make([]string, 0, len(rec))
		for k := range rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "id,title,wall_ms" {
			t.Errorf("%s: fields %v, want id, title, wall_ms", rec["id"], keys)
		}
		ids = append(ids, rec["id"].(string))
	}
	if strings.Join(ids, ",") != "E1,E2" {
		t.Fatalf("records for %v, want E1 then E2:\n%s", ids, out)
	}
}
