package solve

import (
	"fmt"

	"metarouting/internal/exec"
	"metarouting/internal/prop"
)

// Plan is the algorithm an algebra's proof licenses — "routing protocol =
// language + algorithm + proof", read by NewPlan; the engine only picks
// the loop that implements it (ScratchRaw). Every property-gated shortcut
// reads its rows: ScratchRaw's kernel, the delta's warm start, a server's
// rebuild path and skip rule, /v1/stats and the CLIs' plan lines. A Plan
// is comparable with ==.
type Plan struct {
	// Kernel is the from-scratch solver ScratchRaw runs.
	Kernel Kernel
	// Warm is the warm start a delta rebuild takes from a column that is
	// not a verified clean tree (a clean one always takes the sparse
	// start); WarmNone closes the delta path: every rebuild is a scratch
	// build.
	Warm Warm
	// Skip says the fixpoint skip rule is sound (serve's toggleMoves): the
	// delta path is open and the preorder is total (Full).
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
}

// String names the kernel as "best-first (P)", P the licensing property,
// or "sweep".
func (k Kernel) String() string {
	switch {
	case k.M:
		return "best-first (M)"
	case k.I:
		return "best-first (I)"
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
	// WarmLog: an M kernel keeps the derivation log, which a delta
	// replays (derivation.go).
	WarmLog
)

var warmNames = [...]string{"none", "dense", "clean tree", "derivation log (M)"}

func (w Warm) String() string { return warmNames[w] }

// NewPlan is the plan of eng's algebra, read from the judgements on its
// order transform (eng.Source().Props, where core inference stamps the
// inferred set), so every backend running one algebra gets one plan.
func NewPlan(eng exec.Algebra) Plan {
	var props prop.Set
	if src := eng.Source(); src != nil {
		props = src.Props
	}
	return planFor(props)
}

// planFor reads the rows off props: the kernel is M or strict I, each
// with Full and Antisymmetric; the warm start is the derivation log under
// an M kernel, the clean tree under a strict-I one, dense under any other
// M or I; Skip needs a warm start and Full; Forwarding is ND.
func planFor(props prop.Set) Plan {
	var p Plan
	if props.Holds(prop.Full) && props.Holds(prop.Antisymmetric) {
		p.Kernel = Kernel{M: props.Holds(prop.MLeft),
			I: props.Holds(prop.ILeft) && (props.Holds(prop.TopFixed) || props.Holds(prop.SILeft))}
	}
	switch {
	case p.Kernel.M:
		p.Warm = WarmLog
	case p.Kernel.I:
		p.Warm = WarmTree
	case props.Holds(prop.MLeft) || props.Holds(prop.ILeft):
		p.Warm = WarmDense
	}
	p.Skip = p.Warm != WarmNone && props.Holds(prop.Full)
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
