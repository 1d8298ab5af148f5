package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the catalogue (mrbench -manifest);
// the committed file must not drift from it.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(BuildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./cmd/mrbench -manifest > BENCHMARK.json")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

// The catalogue must stay inside the limits the benchmark contract
// puts on BENCHMARK.json.
func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := BuildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len([]rune(w.Why)) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len([]rune(w.Why)))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, p := range m.PerLayer {
		check(p.Name, p.Unit, p.Better)
	}
	for _, d := range PerLayer {
		if d.Layer == "" || d.Moves == "" || d.Doc == "" {
			t.Errorf("%s: layer, interaction and doc must all be stated", d.Name)
		}
	}
}

// The README is the metric catalogue a person reads; it must name
// every metric and workload the code reports.
func TestReadmeNamesEveryMetricAndWorkload(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		if !bytes.Contains(readme, []byte("`"+w.Name+"`")) {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
				t.Errorf("README.md does not document %s", d.Name)
			}
		}
	}
}
