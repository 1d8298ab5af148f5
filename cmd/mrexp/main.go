// Command mrexp runs the paper-reproduction experiment suite (E1–E18)
// and prints the regenerated tables; see EXPERIMENTS.md for the index
// and the paper-vs-measured record.
//
// Usage:
//
//	mrexp                 # run everything
//	mrexp -only E7,E12    # a subset
//	mrexp -seed 7         # different randomization
//	mrexp -json           # per-experiment wall time as JSON lines
//	mrexp -corpus         # run the convergence-validation corpus
//
// The simulator's serial-vs-parallel throughput is measured by
// internal/protocol/validate's BenchmarkSimulator, not by a mode here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"metarouting/internal/expt"
	"metarouting/internal/protocol"
	"metarouting/internal/protocol/validate"
)

// record is the -json output shape, one line per experiment.
type record struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMS float64 `json:"wall_ms"`
}

func main() {
	var (
		seed     = flag.Int64("seed", 42, "random seed for validation sweeps")
		only     = flag.String("only", "", "comma-separated experiment IDs, e.g. E2,E7")
		parallel = flag.Bool("parallel", false, "run experiments concurrently (output order preserved)")
		jsonOut  = flag.Bool("json", false, "emit per-experiment wall time as JSON lines instead of tables")

		corpus     = flag.Bool("corpus", false, "run the convergence-validation corpus instead of the experiment suite")
		corpusSeed = flag.Int64("corpus-seed", 1, "seed generating the validation corpus")
		simWorkers = flag.Int("sim-workers", 0, "-corpus: parallel simulator shard count (0 = GOMAXPROCS)")
		outPath    = flag.String("out", "", "write the -corpus report to this file instead of stdout")
	)
	flag.Parse()

	if *corpus {
		os.Exit(runCorpus(*corpusSeed, *simWorkers, *jsonOut, *outPath))
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	runners := expt.Runners(*seed)
	selected := runners[:0:0]
	for _, r := range runners {
		if len(want) == 0 || want[r.ID] {
			selected = append(selected, r)
		}
	}

	emit := func(i int, outputs []string) {
		t0 := time.Now()
		tbl := selected[i].Run()
		wall := time.Since(t0)
		if *jsonOut {
			line, err := json.Marshal(record{
				ID: tbl.ID, Title: tbl.Title,
				WallMS: float64(wall.Microseconds()) / 1e3,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "mrexp:", err)
				os.Exit(1)
			}
			outputs[i] = string(line)
		} else {
			outputs[i] = tbl.Render()
		}
	}

	outputs := make([]string, len(selected))
	if !*parallel {
		for i := range selected {
			emit(i, outputs)
			fmt.Println(outputs[i])
		}
		return
	}
	// Fan the experiments across cores; print in index order once all
	// results land.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range selected {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			emit(i, outputs)
		}()
	}
	wg.Wait()
	for _, out := range outputs {
		fmt.Println(out)
	}
}

// runCorpus executes the validation corpus on the parallel engine and
// reports per-case verdicts; exit 1 when any case violates theory.
func runCorpus(seed int64, workers int, jsonOut bool, outPath string) int {
	p := protocol.NewParallel(workers)
	defer p.Close()
	results, err := validate.RunCorpus(context.Background(), p, validate.Corpus(seed), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrexp:", err)
		return 2
	}
	var sb strings.Builder
	if jsonOut {
		enc := json.NewEncoder(&sb)
		for _, r := range results {
			if err := enc.Encode(r); err != nil {
				fmt.Fprintln(os.Stderr, "mrexp:", err)
				return 2
			}
		}
	} else {
		fmt.Fprintf(&sb, "convergence-validation corpus (seed %d, %d shards)\n", seed, p.Shards())
		fmt.Fprintf(&sb, "%-28s %-10s %-6s %8s %10s %9s %7s\n",
			"case", "expect", "pass", "rounds", "bound", "messages", "flaps")
		for _, r := range results {
			fmt.Fprintf(&sb, "%-28s %-10s %-6v %8d %10d %9d %7d\n",
				r.Case, r.Expect, r.Pass, r.Rounds, r.Bound, r.Steps, r.TotalFlaps)
			if !r.Pass {
				fmt.Fprintf(&sb, "    %s\n", r.Detail)
			}
		}
		fails := validate.Failures(results)
		fmt.Fprintf(&sb, "%d cases, %d theory violations\n", len(results), len(fails))
	}
	if err := writeOut(outPath, sb.String()); err != nil {
		fmt.Fprintln(os.Stderr, "mrexp:", err)
		return 2
	}
	if len(validate.Failures(results)) > 0 {
		return 1
	}
	return 0
}

func writeOut(path, s string) error {
	if path == "" {
		_, err := fmt.Print(s)
		return err
	}
	return os.WriteFile(path, []byte(s), 0o644)
}
