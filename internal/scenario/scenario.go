// Package scenario loads complete, reproducible simulation scenarios
// from a line-oriented text format:
//
//	# failover drill
//	expr   delay(64, 4)
//	nodes  3
//	arc    1 0 +1
//	arc    2 1 +1
//	arc    2 0 +4
//	dest   0
//	origin 0           # an int, or a nested pair like ((3,0),0)
//	event  50 fail 1 0 # at t=50, fail the arc 1 → 0
//	event  200 up  1 0
//
// The algebra expression is compiled through the inference engine, arc
// labels resolve against its function names (or integer indices), and
// events name arcs by endpoints. Run executes the scenario on the
// asynchronous simulator.
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/protocol"
	"metarouting/internal/value"
)

// maxNodes caps the nodes directive: beyond this the adjacency build
// alone is an effective denial of service on a shared corpus runner
// (fuzzing found the hang long before any real scenario needed it).
const maxNodes = 1_000_000

// Scenario is a parsed scenario, ready to run.
type Scenario struct {
	// Expr is the algebra expression source.
	Expr string
	// Algebra is the compiled algebra.
	Algebra *core.Algebra
	// Engine is the execution backend Run simulates on. Parse picks it
	// with exec.For: compiled for finite algebras up to exec.AutoLimit,
	// tiered otherwise.
	Engine exec.Algebra
	// Graph is the topology.
	Graph *graph.Graph
	// Dest and Origin configure the origination.
	Dest   int
	Origin value.V
	// Events are the topology changes.
	Events []protocol.LinkEvent
}

// Parse reads a scenario. Directives may appear in any order except that
// arcs require a prior nodes directive and events require their arc to
// exist.
func Parse(rd io.Reader) (*Scenario, error) {
	sc := bufio.NewScanner(rd)
	s := &Scenario{Dest: 0}
	n := -1
	var arcs []graph.Arc
	var labelTokens []string
	var originSrc string
	type rawEvent struct {
		at       int64
		fail     bool
		from, to int
	}
	var rawEvents []rawEvent
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "expr":
			s.Expr = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "expr"))
		case "nodes":
			if len(fields) != 2 {
				return nil, fmt.Errorf("scenario line %d: nodes wants one argument", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("scenario line %d: bad node count", lineNo)
			}
			if v > maxNodes {
				return nil, fmt.Errorf("scenario line %d: node count %d exceeds the %d cap", lineNo, v, maxNodes)
			}
			n = v
		case "arc":
			if len(fields) != 4 {
				return nil, fmt.Errorf("scenario line %d: arc wants 'arc from to label'", lineNo)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("scenario line %d: bad endpoints", lineNo)
			}
			// Labels resolve after the algebra is compiled; stash the
			// token in a side table via a placeholder index.
			arcs = append(arcs, graph.Arc{From: from, To: to, Label: -1 - len(labelTokens)})
			labelTokens = append(labelTokens, fields[3])
		case "dest":
			if len(fields) != 2 {
				return nil, fmt.Errorf("scenario line %d: dest wants one argument", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("scenario line %d: bad dest", lineNo)
			}
			s.Dest = v
		case "origin":
			originSrc = strings.Join(fields[1:], "")
		case "event":
			if len(fields) != 5 {
				return nil, fmt.Errorf("scenario line %d: event wants 'event at fail|up from to'", lineNo)
			}
			at, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("scenario line %d: bad event time", lineNo)
			}
			if at < 0 {
				return nil, fmt.Errorf("scenario line %d: event time %d must be ≥ 0", lineNo, at)
			}
			var fail bool
			switch fields[2] {
			case "fail":
				fail = true
			case "up":
				fail = false
			default:
				return nil, fmt.Errorf("scenario line %d: event kind must be fail or up", lineNo)
			}
			from, err1 := strconv.Atoi(fields[3])
			to, err2 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("scenario line %d: bad event endpoints", lineNo)
			}
			rawEvents = append(rawEvents, rawEvent{at: at, fail: fail, from: from, to: to})
		default:
			return nil, fmt.Errorf("scenario line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Expr == "" {
		return nil, fmt.Errorf("scenario: missing expr directive")
	}
	if n < 0 {
		return nil, fmt.Errorf("scenario: missing nodes directive")
	}
	a, err := core.InferString(s.Expr)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	s.Algebra = a
	// Resolve labels now that function names are known.
	for i := range arcs {
		tok := labelTokens[-1-arcs[i].Label]
		idx := -1
		if a.OT.F.Finite() {
			for fi, f := range a.OT.F.Fns {
				if f.Name == tok {
					idx = fi
					break
				}
			}
		}
		if idx < 0 {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("scenario: unknown arc label %q", tok)
			}
			idx = v
		}
		arcs[i].Label = idx
	}
	s.Graph, err = graph.New(n, arcs)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	// A numeric label past the function set would only surface as an
	// index panic deep inside the simulator; reject it here.
	if err := s.Graph.CheckLabels(a.OT.F.Size()); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if s.Dest < 0 || s.Dest >= n {
		return nil, fmt.Errorf("scenario: dest %d out of range", s.Dest)
	}
	if originSrc == "" {
		return nil, fmt.Errorf("scenario: missing origin directive")
	}
	s.Origin, err = parseValue(originSrc)
	if err != nil {
		return nil, fmt.Errorf("scenario: origin: %v", err)
	}
	if err := a.OT.CheckWeight(s.Origin); err != nil {
		return nil, fmt.Errorf("scenario: origin: %v", err)
	}
	for _, re := range rawEvents {
		idx := -1
		for ai, arc := range s.Graph.Arcs {
			if arc.From == re.from && arc.To == re.to {
				idx = ai
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("scenario: event names missing arc %d → %d", re.from, re.to)
		}
		s.Events = append(s.Events, protocol.LinkEvent{At: re.at, Arc: idx, Fail: re.fail})
	}
	s.Engine = exec.For(a.OT, s.Origin)
	return s, nil
}

// parseValue parses an origin literal: an integer, or a nested pair
// "(a,b)".
func parseValue(src string) (value.V, error) {
	src = strings.TrimSpace(src)
	if !strings.HasPrefix(src, "(") {
		v, err := strconv.Atoi(src)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", src)
		}
		return v, nil
	}
	if !strings.HasSuffix(src, ")") {
		return nil, fmt.Errorf("unbalanced %q", src)
	}
	inner := src[1 : len(src)-1]
	// Split at the top-level comma.
	depth, cut := 0, -1
	for i, c := range inner {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && cut < 0 {
				cut = i
			}
		}
	}
	if cut < 0 {
		return nil, fmt.Errorf("pair %q needs a top-level comma", src)
	}
	a, err := parseValue(inner[:cut])
	if err != nil {
		return nil, err
	}
	b, err := parseValue(inner[cut+1:])
	if err != nil {
		return nil, err
	}
	return value.Pair{A: a, B: b}, nil
}

// SortedEvents returns a copy of the scenario's topology events in
// firing order — the replay order a live route server applies them in
// (the simulator sorts internally; servers consume them one at a time).
func (s *Scenario) SortedEvents() []protocol.LinkEvent {
	evs := append([]protocol.LinkEvent(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Run executes the scenario on the asynchronous simulator with the given
// seed and message budget (≤ 0 for the simulator default).
func (s *Scenario) Run(seed int64, maxSteps int) *protocol.Outcome {
	eng := s.Engine
	if eng == nil {
		eng = exec.For(s.Algebra.OT, s.Origin)
	}
	return protocol.RunEngine(eng, s.Graph, protocol.Config{
		Dest: s.Dest, Origin: s.Origin, MaxDelay: 3,
		Rand: rand.New(rand.NewSource(seed)), MaxSteps: maxSteps,
		Events: s.Events,
	})
}
