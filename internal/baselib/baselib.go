// Package baselib provides the base algebras of the metarouting language:
// the classic routing metrics (distance/delay, bandwidth, reliability, hop
// count, local preference, origin, tags) realized in the quadrants model,
// each with both an exhaustively checkable finite truncation and, where
// meaningful, an unbounded sampled version.
//
// Every constructor returns a structure whose Props are *declared*; the
// package's tests verify each declaration against the model checker on
// the finite truncations, so declarations are trustworthy inputs for the
// inference engine.
package baselib

import (
	"fmt"
	"math/rand"

	"metarouting/internal/fn"
	"metarouting/internal/order"
	"metarouting/internal/ost"
	"metarouting/internal/prop"
	"metarouting/internal/value"
)

// Delay returns the additive-delay order transform: weights {0..cap} (or
// unbounded sampled ℕ when cap == 0) ordered by ≤ (smaller is better),
// with arc functions {λx. x+d | 1 ≤ d ≤ maxStep} (saturating at cap when
// bounded).
//
// Declared properties: M, ND, I always; T when bounded (cap is ⊤);
// N exactly when unbounded (saturation destroys cancellativity).
func Delay(cap, maxStep int) *ost.OrderTransform {
	if maxStep < 1 {
		panic("baselib: Delay needs maxStep ≥ 1")
	}
	var car *value.Carrier
	var apply func(d int) func(value.V) value.V
	if cap > 0 {
		car = value.Ints(0, cap)
		apply = func(d int) func(value.V) value.V {
			return func(v value.V) value.V { return minInt(cap, v.(int)+d) }
		}
	} else {
		car = value.NewSampled("ℕ", func(r *rand.Rand) value.V { return r.Intn(1 << 16) })
		apply = func(d int) func(value.V) value.V {
			return func(v value.V) value.V { return v.(int) + d }
		}
	}
	fns := make([]fn.Fn, 0, maxStep)
	for d := 1; d <= maxStep; d++ {
		fns = append(fns, fn.Fn{Name: fmt.Sprintf("+%d", d), Apply: apply(d)})
	}
	name := "delay"
	if cap > 0 {
		name = fmt.Sprintf("delay≤%d", cap)
	}
	t := ost.New(name, order.IntLeq("(ℕ,≤)", car), fn.NewFinite("F_delay", fns))
	t.Props.Declare(prop.MLeft)
	t.Props.Declare(prop.NDLeft)
	t.Props.Declare(prop.ILeft)
	t.Props.DeclareFalse(prop.CLeft, "f(0) ≠ f(1) under ≤")
	if cap > 0 {
		t.Ord.WithTop(cap)
		t.Props.Declare(prop.TopFixed)
		t.Props.DeclareFalse(prop.NLeft,
			fmt.Sprintf("+%d maps both %d and %d to the ceiling %d", maxStep, cap, cap-1, cap))
		t.Props.DeclareFalse(prop.SILeft, fmt.Sprintf("the ceiling %d does not strictly increase", cap))
	} else {
		t.Props.Declare(prop.NLeft)
		t.Props.Declare(prop.SILeft)
		t.Props.DeclareFalse(prop.TopFixed, "no ⊤ element")
		t.Ord.Props.DeclareFalse(prop.HasTop, "ℕ has no greatest element")
		// ℕ cannot be enumerated for its ⊥, and products take their
		// default origin from their factors' ⊥s (order.Lex).
		t.Ord.WithBot(0)
	}
	return t
}

// Bandwidth returns the bottleneck-bandwidth order transform: weights
// {0..cap} ordered by ≥ (larger is better, so ⊤ = 0 = "no bandwidth"),
// with arc functions {λx. min(x, c) | c ∈ {0..cap}} — each link imposes
// its capacity.
//
// Declared properties: M, ND, T; ¬N (two flows above a link's capacity
// collapse), ¬I (a link wider than the current bottleneck leaves the
// weight unchanged), ¬C.
func Bandwidth(cap int) *ost.OrderTransform {
	if cap < 1 {
		panic("baselib: Bandwidth needs cap ≥ 1")
	}
	car := value.Ints(0, cap)
	fns := make([]fn.Fn, 0, cap+1)
	for c := 0; c <= cap; c++ {
		c := c
		fns = append(fns, fn.Fn{
			Name:  fmt.Sprintf("cap%d", c),
			Apply: func(v value.V) value.V { return minInt(v.(int), c) },
		})
	}
	ord := order.New("(ℕ,≥)", car, func(a, b value.V) bool { return a.(int) >= b.(int) })
	ord.WithTop(0).WithBot(cap)
	t := ost.New(fmt.Sprintf("bw≤%d", cap), ord, fn.NewFinite("F_bw", fns))
	t.Props.Declare(prop.MLeft)
	t.Props.Declare(prop.NDLeft)
	t.Props.Declare(prop.TopFixed)
	t.Props.DeclareFalse(prop.NLeft, fmt.Sprintf("cap1 maps both %d and %d to 1", cap, cap-1))
	t.Props.DeclareFalse(prop.ILeft, fmt.Sprintf("cap%d leaves %d unchanged (≠ ⊤)", cap, cap))
	t.Props.DeclareFalse(prop.SILeft, fmt.Sprintf("cap%d leaves %d unchanged", cap, cap))
	t.Props.DeclareFalse(prop.CLeft, fmt.Sprintf("cap%d separates 0 and %d", cap, cap))
	return t
}

// Reliability returns the most-reliable-path order transform over a
// discretized [0,1]: weights {0, 1/levels, …, 1} ordered by ≥ (more
// reliable is better, ⊤ = 0), with arc functions multiplying by each
// level and rounding down to the grid.
//
// Declared properties: M, ND, T; ¬N (multiplication by 0 collapses
// everything, and grid rounding collapses neighbours), ¬I (multiplying by
// 1 leaves weights unchanged), ¬C.
func Reliability(levels int) *ost.OrderTransform {
	if levels < 2 {
		panic("baselib: Reliability needs levels ≥ 2")
	}
	// Represent probabilities as integer numerators over `levels`.
	car := value.Ints(0, levels)
	fns := make([]fn.Fn, 0, levels+1)
	for p := 0; p <= levels; p++ {
		p := p
		fns = append(fns, fn.Fn{
			Name:  fmt.Sprintf("×%d/%d", p, levels),
			Apply: func(v value.V) value.V { return v.(int) * p / levels },
		})
	}
	ord := order.New("([0,1],≥)", car, func(a, b value.V) bool { return a.(int) >= b.(int) })
	ord.WithTop(0).WithBot(levels)
	t := ost.New(fmt.Sprintf("rel/%d", levels), ord, fn.NewFinite("F_rel", fns))
	t.Props.Declare(prop.MLeft)
	t.Props.Declare(prop.NDLeft)
	t.Props.Declare(prop.TopFixed)
	t.Props.DeclareFalse(prop.NLeft, "×0 collapses all weights")
	t.Props.DeclareFalse(prop.ILeft, fmt.Sprintf("×%d/%d is the identity", levels, levels))
	t.Props.DeclareFalse(prop.SILeft, fmt.Sprintf("×%d/%d is the identity", levels, levels))
	t.Props.DeclareFalse(prop.CLeft, "×1 separates weights")
	return t
}

// HopCount returns the hop-count order transform: Delay with unit steps.
func HopCount(cap int) *ost.OrderTransform {
	t := Delay(cap, 1)
	if cap > 0 {
		t.Name = fmt.Sprintf("hops≤%d", cap)
	} else {
		t.Name = "hops"
	}
	return t
}

// LocalPref returns the local-preference order transform: weights
// {0..levels} ordered by ≥ (higher preference wins, ⊤ = 0), with every
// arc function a constant κ_b — the receiving side of a link dictates the
// preference, as with BGP LOCAL_PREF. This is left(·) of the bare
// preference order.
//
// Declared properties: M, C (constants are condensed!), T is false (κ_b
// moves ⊤), N false, ND/I false (a constant can improve a route).
func LocalPref(levels int) *ost.OrderTransform {
	if levels < 1 {
		panic("baselib: LocalPref needs levels ≥ 1")
	}
	car := value.Ints(0, levels)
	ord := order.New("(pref,≥)", car, func(a, b value.V) bool { return a.(int) >= b.(int) })
	ord.WithTop(0).WithBot(levels)
	t := ost.New(fmt.Sprintf("lp≤%d", levels), ord, fn.Constants(car))
	t.Props.Declare(prop.MLeft)
	t.Props.Declare(prop.CLeft)
	t.Props.DeclareFalse(prop.NLeft, "κ_b maps strictly ordered prefs to the same value")
	t.Props.DeclareFalse(prop.NDLeft, "κ_high improves a low-pref route")
	t.Props.DeclareFalse(prop.ILeft, "κ_b does not strictly worsen")
	t.Props.DeclareFalse(prop.SILeft, "κ_a(a) = a")
	t.Props.DeclareFalse(prop.TopFixed, "κ_b moves ⊤")
	return t
}

// Origin returns the origin-attribute order transform: a small totally
// ordered set of origin codes {0..n} with only the identity function —
// right(·) of the bare order. Once originated, the value is copied.
//
// Declared properties: M, N, ND, T; ¬I (id never strictly worsens),
// ¬C (id separates).
func Origin(n int) *ost.OrderTransform {
	if n < 1 {
		panic("baselib: Origin needs n ≥ 1")
	}
	car := value.Ints(0, n)
	t := ost.New(fmt.Sprintf("origin%d", n), order.IntLeq("(origin,≤)", car), fn.IdentityOnly())
	t.Ord.WithTop(n)
	t.Props.Declare(prop.MLeft)
	t.Props.Declare(prop.NLeft)
	t.Props.Declare(prop.NDLeft)
	t.Props.Declare(prop.TopFixed)
	t.Props.DeclareFalse(prop.ILeft, "id leaves non-⊤ weights unchanged")
	t.Props.DeclareFalse(prop.SILeft, "id never strictly worsens")
	t.Props.DeclareFalse(prop.CLeft, "id separates weights")
	return t
}

// Tags returns a community-tags order transform: weights are bit sets
// over nbits tags under the discrete order (tag sets are policy inputs,
// not preferences), with arc functions that set or clear each tag.
//
// Declared properties: M (discrete order: a ≲ b only when a = b), ND/I
// false, N false (set-tag collapses), C false, T false.
func Tags(nbits int) *ost.OrderTransform {
	if nbits < 1 || nbits > 16 {
		panic("baselib: Tags needs 1 ≤ nbits ≤ 16")
	}
	car := value.Ints(0, 1<<nbits-1)
	car.Name = fmt.Sprintf("2^tags%d", nbits)
	fns := []fn.Fn{fn.Identity()}
	for b := 0; b < nbits; b++ {
		b := b
		fns = append(fns,
			fn.Fn{Name: fmt.Sprintf("set%d", b), Apply: func(v value.V) value.V { return v.(int) | 1<<b }},
			fn.Fn{Name: fmt.Sprintf("clr%d", b), Apply: func(v value.V) value.V { return v.(int) &^ (1 << b) }},
		)
	}
	t := ost.New(fmt.Sprintf("tags%d", nbits), order.Discrete(car), fn.NewFinite("F_tags", fns))
	t.Props.Declare(prop.MLeft)
	// N holds vacuously under the discrete order: distinct elements are
	// incomparable, so the conclusion a ~ b ∨ a # b is always available.
	t.Props.Declare(prop.NLeft)
	t.Props.DeclareFalse(prop.CLeft, "id separates")
	t.Props.DeclareFalse(prop.NDLeft, "discrete order: set0(0) = 1 and ¬(0 ≲ 1)")
	t.Props.DeclareFalse(prop.ILeft, "discrete order admits no strict increase")
	t.Props.DeclareFalse(prop.SILeft, "discrete order admits no strict increase")
	t.Props.DeclareFalse(prop.TopFixed, "no ⊤ in a discrete order with ≥2 elements")
	return t
}

// Unit returns the one-element order transform — the identity of ×lex up
// to isomorphism. Every routing property holds trivially (the sole
// element is ⊤).
func Unit() *ost.OrderTransform {
	car := value.NewFinite("1", []value.V{0})
	t := ost.New("unit", order.Chaotic(car), fn.IdentityOnly())
	t.Ord.WithTop(0)
	for _, id := range []prop.ID{prop.MLeft, prop.NLeft, prop.CLeft, prop.NDLeft, prop.ILeft, prop.TopFixed} {
		t.Props.Declare(id)
	}
	t.Props.DeclareFalse(prop.SILeft, "id(0) = 0")
	return t
}

// SPPGadget returns the stable-paths-problem gadget algebra used to build
// BAD GADGET instances (persistent route oscillation, Varadhan et al.,
// cited as [16]): weights 0 < 1 < 2 < 3, where 0 is the originated
// weight, 1 is a preferred "via my neighbour" route, 2 is a fallback
// direct route, and 3 = ⊤ marks a filtered (forbidden) path. The two arc
// functions are
//
//	direct: 0 ↦ 2, everything else ↦ ⊤   (label 0)
//	via:    2 ↦ 1, everything else ↦ ⊤   (label 1)
//
// so exactly the SPP-permitted paths (i,0) and (i,i+1,0) survive, with
// the two-hop path preferred. The algebra is neither monotone nor
// nondecreasing — as BAD GADGET requires.
func SPPGadget() *ost.OrderTransform {
	car := value.Ints(0, 3)
	direct := fn.Fn{Name: "direct", Apply: func(v value.V) value.V {
		if v.(int) == 0 {
			return 2
		}
		return 3
	}}
	via := fn.Fn{Name: "via", Apply: func(v value.V) value.V {
		if v.(int) == 2 {
			return 1
		}
		return 3
	}}
	t := ost.New("sppgadget", order.IntLeq("(spp,≤)", car), fn.NewFinite("F_spp", []fn.Fn{direct, via}))
	t.Ord.WithTop(3)
	t.Props.Declare(prop.TopFixed)
	t.Props.DeclareFalse(prop.MLeft, "via(1)=⊤ but via(2)=1 although 1 < 2")
	t.Props.DeclareFalse(prop.NDLeft, "via(2)=1 improves the weight")
	t.Props.DeclareFalse(prop.ILeft, "via(2)=1 improves the weight")
	t.Props.DeclareFalse(prop.SILeft, "via(2)=1 improves the weight")
	t.Props.DeclareFalse(prop.NLeft, "direct collapses 1 and 3 to ⊤")
	t.Props.DeclareFalse(prop.CLeft, "direct separates 0 and 1")
	return t
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
