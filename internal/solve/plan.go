package solve

import (
	"fmt"

	"metarouting/internal/compile"
	"metarouting/internal/exec"
	"metarouting/internal/prop"
)

// Plan is the algorithm an engine's proof licenses — "routing protocol =
// language + algorithm + proof", read once per engine by NewPlan. Every
// property-gated shortcut reads its rows: ScratchRaw's kernel, the delta's
// warm start, a server's rebuild path and skip rule, /v1/stats and the
// CLIs' plan lines. A Plan is comparable with ==.
type Plan struct {
	// Kernel is the from-scratch solver ScratchRaw runs.
	Kernel Kernel
	// Warm is the warm start a delta rebuild takes from a column that is
	// not a verified clean tree (a clean one always takes the sparse
	// start); WarmNone closes the delta path: every rebuild is a scratch
	// build.
	Warm Warm
	// Skip says the fixpoint skip rule is sound (serve's toggleMoves): the
	// delta path is open and the preorder is total, by the compiled rank
	// vector or the inferred Full.
	Skip bool
	// Forwarding says ND holds, so following next hops realises each
	// weight. Without it an arc may improve a weight and an answer's next
	// hops may loop (serve marks those "forwardable":false).
	Forwarding bool
}

// Kernel is a plan's scratch-solver row: best-first under M or strict I
// (I with T, or SI) over an antisymmetric total order, the sweep under
// neither. M is named when both hold.
type Kernel struct {
	M, I bool
	// Table holds the compiled tables that verified the licence cell by
	// cell: bestFirst indexes them and, under M, keeps the derivation log.
	// It is nil when the licence is the inference's (bestFirstLt) or when
	// there is none.
	Table *compile.Compiled
}

// String names the kernel as "best-first (P, S)", P the licensing
// property and S its source (table or inferred), or "sweep".
func (k Kernel) String() string {
	src := "inferred"
	if k.Table != nil {
		src = "table"
	}
	switch {
	case k.M:
		return "best-first (M, " + src + ")"
	case k.I:
		return "best-first (I, " + src + ")"
	}
	return "sweep"
}

// Warm is a plan's warm-start row.
type Warm uint8

const (
	// WarmNone: neither M nor I holds, so no warm start is sound.
	WarmNone Warm = iota
	// WarmDense: M or I makes the fixpoint a dense drain reaches from a
	// purged previous column the scratch one (Daggitt & Griffin).
	WarmDense
	// WarmTree: the strict-I kernel's columns are forwarding trees below
	// the top weight, so the sparse warm start is the one that runs.
	WarmTree
	// WarmLog: M verified on compiled tables keeps the kernel's
	// derivation log, which a delta replays (derivation.go).
	WarmLog
)

var warmNames = [...]string{"none", "dense", "clean tree", "derivation log (M)"}

func (w Warm) String() string { return warmNames[w] }

// NewPlan reads eng's plan from the proof the engine carries: its
// compiled tables (exec.Tables) and its order transform's judgements
// (eng.Source().Props, where core inference stamps the inferred set).
//
//   - Kernel: the tables' verified M or strict I, else the judgements' M
//     or strict I together with Full and Antisymmetric.
//   - Warm: the derivation log under an M kernel on tables, the clean
//     tree under a strict-I kernel, dense under any other M or I.
//   - Skip: a warm start and a total order (a rank vector, or Full).
//   - Forwarding: ND.
func NewPlan(eng exec.Algebra) Plan {
	var props prop.Set
	if src := eng.Source(); src != nil {
		props = src.Props
	}
	return planFor(exec.Tables(eng), props)
}

func planFor(t *compile.Compiled, props prop.Set) Plan {
	var p Plan
	switch {
	case t != nil && (t.Monotone || t.StrictlyIncreasing):
		p.Kernel = Kernel{M: t.Monotone, I: t.StrictlyIncreasing, Table: t}
	case props.Holds(prop.Full) && props.Holds(prop.Antisymmetric):
		p.Kernel = Kernel{M: props.Holds(prop.MLeft),
			I: props.Holds(prop.ILeft) && (props.Holds(prop.TopFixed) || props.Holds(prop.SILeft))}
	}
	switch {
	case p.Kernel.M && p.Kernel.Table != nil:
		p.Warm = WarmLog
	case p.Kernel.I:
		p.Warm = WarmTree
	case props.Holds(prop.MLeft) || props.Holds(prop.ILeft):
		p.Warm = WarmDense
	}
	p.Skip = p.Warm != WarmNone && (t != nil || props.Holds(prop.Full))
	p.Forwarding = props.Holds(prop.NDLeft)
	return p
}

// String renders the plan's rows on one line.
func (p Plan) String() string {
	skip, fwd := "off", "not promised"
	if p.Skip {
		skip = "on"
	}
	if p.Forwarding {
		fwd = "promised (ND)"
	}
	return fmt.Sprintf("scratch solver: %v; warm start: %v; skip rule: %s; forwarding: %s", p.Kernel, p.Warm, skip, fwd)
}

// ForwardingNote is the line the command-line tools print at boot beside
// a plan that does not promise forwarding, and "" beside one that does.
// Without ND an arc may improve a weight, so following next hops need not
// realise a route's weight: the route tables still hold the selected
// weights, and the serve plane marks each answer whose next hops loop
// ("forwardable":false).
func (p Plan) ForwardingNote() string {
	if p.Forwarding {
		return ""
	}
	return "forwarding is not promised: without ND an arc may improve a weight, so hop-by-hop forwarding" +
		" need not realise a route's weight (route answers carry \"forwardable\":false and \"loop_at\"" +
		" where next hops loop)"
}

// plan is the plan ScratchRaw and the delta read: the one the workspace
// carries, else the engine's own.
func (ws *Workspace) plan(eng exec.Algebra) Plan {
	if ws.Plan != nil {
		return *ws.Plan
	}
	return NewPlan(eng)
}
