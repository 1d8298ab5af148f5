package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// ResultLine is the one-line JSON object a run ends its standard
// output with.
type ResultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]LineMetric `json:"metrics"`
}

// LineMetric is one metric of the result line.
type LineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line renders the result line: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func (res *Result) Line() ResultLine {
	defs := EndToEnd
	if res.Traced {
		defs = PerLayer
	}
	l := ResultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]LineMetric, len(defs))}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			// A metric the run did not produce makes the run incorrect
			// rather than silently absent.
			l.Correct = false
		}
		l.Metrics[d.Name] = LineMetric{Value: v.Value, Unit: d.Unit}
	}
	return l
}

// WriteTable prints the run for a person: where it ran, what it drove,
// each metric with its unit and sample count, then the ungated
// readings and the first failures.
func (res *Result) WriteTable(w io.Writer) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0fs  %s\n", res.Workload, res.Seed, res.Seconds, kind)
	e, s := res.Env, res.Shape
	fmt.Fprintf(w, "   host %s  nproc %d  GOMAXPROCS %d  %s  commit %s\n", e.Host, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "   %s\n", e.Transport)
	fmt.Fprintf(w, "   %s  engine %s  %d nodes  %d arcs  %d destinations  %d prefixes (+%d suppressed)  %d workers  inputs %s\n",
		s.Expr, s.Engine, s.Nodes, s.Arcs, s.Dests, s.Prefixes, s.Suppressed, s.Workers, s.InputHash)
	fmt.Fprintf(w, "   main window:  %s\n   probe window: %s\n", s.Main, s.Probe)
	for _, name := range SortedNames(res.Metrics) {
		v := res.Metrics[name]
		fmt.Fprintf(w, "   %-30s %16.4f %-9s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
	for _, name := range SortedNames(res.Info) {
		v := res.Info[name]
		fmt.Fprintf(w, "   (info) %-23s %16.4f %-9s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
	fmt.Fprintf(w, "   operations: %d attempted, %d failed; correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// WriteFile stores the full result as report-<workload>[-trace].json
// under dir.
func (res *Result) WriteFile(dir string) error {
	name := "report-" + res.Workload
	if res.Traced {
		name += "-trace"
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}

// Disagreement is one end-to-end metric on which two runs of the same
// build and seed differ by more than the metric's own bound.
type Disagreement struct {
	Workload string
	Metric   string
	A, B     float64
	Bound    float64
}

// Compare lists the end-to-end metrics on which b differs from a, in
// either direction, by more than the catalogue's bound for the metric.
func Compare(workload string, a, b ResultLine) []Disagreement {
	var out []Disagreement
	for _, d := range EndToEnd {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		if va == 0 || math.Abs(vb-va)/math.Abs(va) > d.Bound {
			out = append(out, Disagreement{Workload: workload, Metric: d.Name, A: va, B: vb, Bound: d.Bound})
		}
	}
	return out
}

// SelfCheck runs every workload twice through run — two runs of the
// same build on the same seed — and prints both columns. It returns the
// metrics that failed to repeat within their own bounds: a benchmark
// that cannot agree with itself cannot judge a change. run should give
// each run a process of its own, as the benchmark's driver does; runs
// sharing a process inherit each other's heap.
func SelfCheck(run func(Workload) (ResultLine, error), w io.Writer) ([]Disagreement, error) {
	var bad []Disagreement
	for _, wl := range Workloads {
		var pair [2]ResultLine
		for i := range pair {
			line, err := run(wl)
			if err != nil {
				return nil, fmt.Errorf("bench: %s run %c: %w", wl.Name, 'A'+i, err)
			}
			if !line.Correct {
				return nil, fmt.Errorf("bench: %s run %c was incorrect (%d of %d operations failed)", wl.Name, 'A'+i, line.Failed, line.Attempted)
			}
			pair[i] = line
		}
		fmt.Fprintf(w, "== %s  A/A\n", wl.Name)
		fmt.Fprintf(w, "   %-22s %14s %14s %8s %7s\n", "metric", "A", "B", "diff", "bound")
		dis := Compare(wl.Name, pair[0], pair[1])
		for _, d := range EndToEnd {
			va, vb := pair[0].Metrics[d.Name].Value, pair[1].Metrics[d.Name].Value
			mark := ""
			for _, x := range dis {
				if x.Metric == d.Name {
					mark = "  <-- exceeds bound"
				}
			}
			fmt.Fprintf(w, "   %-22s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", d.Name, va, vb, 100*(vb-va)/va, 100*d.Bound, mark)
		}
		bad = append(bad, dis...)
	}
	return bad, nil
}
