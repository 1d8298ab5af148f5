// Command mrbench is the repository's benchmark: one process hosts a
// production-configured leader, one read-only follower and a load
// generator, all over loopback sockets, and measures what a user of
// the system sees — how long a link event takes to reach a follower's
// answers, and what a query costs meanwhile — plus, on a traced pass,
// where that time goes layer by layer. BENCHMARK.json at the repository
// root describes it; internal/bench/README.md documents every metric.
//
//	go run ./cmd/mrbench -workload storm-sparse-100k -seed 7
//	go run ./cmd/mrbench -workload storm-sparse-100k -seed 7 -trace 1
//	go run ./cmd/mrbench -seed 7              # all four workloads
//	go run ./cmd/mrbench -selfcheck -seed 7   # A/A: every workload twice
//	go run ./cmd/mrbench -manifest            # BENCHMARK.json from the catalogue
//
// A single-workload run ends its standard output with one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with -trace 1. It exits non-zero if
// any operation or correctness gate failed. The multi-run modes give
// every run a process of its own (this binary, re-executed), because
// heap_live_mb and GC behaviour are properties of a fresh process.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"metarouting/internal/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all, one after another)")
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same topology, storms, prefixes and queries")
		seconds   = flag.Float64("seconds", bench.RunSeconds, "measured seconds per run (main window 2/3, probe window 1/3)")
		trace     = flag.String("trace", "0", "1: traced pass (per-layer metrics, writes trace-<workload>.json); 0: end-to-end pass")
		dir       = flag.String("dir", ".mrbench", "directory for the replica log, reports and trace files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on the same seed and fail if any end-to-end metric differs by more than its bound")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric catalogue and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	if *trace != "0" && *trace != "1" {
		fatal(2, "-trace wants 0 or 1, got %q", *trace)
	}
	if *manifest {
		b, err := json.MarshalIndent(bench.BuildManifest(), "", "  ")
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(string(b))
		return
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(1, "%v", err)
	}

	// child runs one workload in a fresh process and returns its result
	// line; the child's table goes to this process's standard output.
	child := func(w bench.Workload, trace string) (bench.ResultLine, error) {
		self, err := os.Executable()
		if err != nil {
			return bench.ResultLine{}, err
		}
		cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", trace, "-dir", *dir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		runErr := cmd.Run()
		body := bytes.TrimRight(out.Bytes(), "\n")
		i := bytes.LastIndexByte(body, '\n')
		os.Stdout.Write(body[:i+1])
		var line bench.ResultLine
		if err := json.Unmarshal(body[i+1:], &line); err != nil {
			return line, fmt.Errorf("%s: no result line (%v; %v)", w.Name, runErr, err)
		}
		return line, nil
	}

	switch {
	case *selfcheck:
		bad, err := bench.SelfCheck(func(w bench.Workload) (bench.ResultLine, error) { return child(w, "0") }, os.Stdout)
		if err != nil {
			fatal(1, "%v", err)
		}
		for _, d := range bad {
			fmt.Printf("A/A DISAGREES: %s %s: %.4f vs %.4f (bound %.0f%%)\n", d.Workload, d.Metric, d.A, d.B, 100*d.Bound)
		}
		if len(bad) > 0 {
			os.Exit(1)
		}
		fmt.Println("selfcheck: every end-to-end metric repeated within its bound")

	case *workload == "":
		ok := true
		lines := make(map[string]bench.ResultLine, len(bench.Workloads))
		for _, w := range bench.Workloads {
			line, err := child(w, *trace)
			if err != nil {
				fatal(1, "%v", err)
			}
			lines[w.Name] = line
			ok = ok && line.Correct
		}
		printJSON(lines)
		if !ok {
			os.Exit(1)
		}

	default:
		w, found := bench.WorkloadByName(*workload)
		if !found {
			fatal(2, "unknown workload %q", *workload)
		}
		res, err := bench.Run(bench.Options{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == "1", Dir: *dir, Log: os.Stderr})
		if err != nil {
			fatal(1, "%v", err)
		}
		res.WriteTable(os.Stdout)
		if err := res.WriteFile(*dir); err != nil {
			fatal(1, "%v", err)
		}
		// The last line of standard output is the machine-readable result.
		line := res.Line()
		printJSON(line)
		if !line.Correct {
			os.Exit(1)
		}
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(b))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mrbench: "+format+"\n", args...)
	os.Exit(code)
}
