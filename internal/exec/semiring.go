package exec

import (
	"fmt"

	"metarouting/internal/bsg"
	"metarouting/internal/compile"
	"metarouting/internal/value"
)

// Semiring is the execution interface for bisemigroup routing (the
// algebraic-path Closure solver): interned weights with ⊕/⊗ as index
// operations. Like Algebra, the compiled backend is pure lookups and the
// dynamic backend hash-conses, so index equality is value equality on
// both.
type Semiring interface {
	// Name labels the underlying bisemigroup.
	Name() string
	// Mode reports the backend kind.
	Mode() Mode
	// Intern and Value convert between carrier elements and indices.
	Intern(v value.V) (int32, error)
	Value(w int32) value.V
	// Add is ⊕ (summarization), Mul is ⊗ (computation).
	Add(a, b int32) int32
	Mul(a, b int32) int32
}

type dynamicSemiring struct {
	b     *bsg.Bisemigroup
	elems []value.V
	index map[value.V]int32
}

// NewDynamicSemiring builds the interpreting backend over a bisemigroup.
func NewDynamicSemiring(b *bsg.Bisemigroup) Semiring {
	return &dynamicSemiring{b: b, index: make(map[value.V]int32, 16)}
}

func (d *dynamicSemiring) Name() string { return d.b.Name }
func (d *dynamicSemiring) Mode() Mode   { return ModeDynamic }

func (d *dynamicSemiring) intern(v value.V) int32 {
	if w, ok := d.index[v]; ok {
		return w
	}
	w := int32(len(d.elems))
	d.elems = append(d.elems, v)
	d.index[v] = w
	return w
}

func (d *dynamicSemiring) Intern(v value.V) (int32, error) { return d.intern(v), nil }
func (d *dynamicSemiring) Value(w int32) value.V           { return d.elems[w] }

func (d *dynamicSemiring) Add(a, b int32) int32 {
	return d.intern(d.b.Add.Op(d.elems[a], d.elems[b]))
}

func (d *dynamicSemiring) Mul(a, b int32) int32 {
	return d.intern(d.b.Mul.Op(d.elems[a], d.elems[b]))
}

type tabledSemiring struct {
	b *bsg.Bisemigroup
	c *compile.CompiledBisemigroup
}

// CompileSemiring builds the dense-table backend; it fails when the
// bisemigroup is infinite, too large, or not closed under its ops.
func CompileSemiring(b *bsg.Bisemigroup) (Semiring, error) {
	c, err := compile.NewBisemigroup(b)
	if err != nil {
		return nil, err
	}
	return &tabledSemiring{b: b, c: c}, nil
}

func (e *tabledSemiring) Name() string { return e.b.Name }
func (e *tabledSemiring) Mode() Mode   { return ModeCompiled }

func (e *tabledSemiring) Intern(v value.V) (int32, error) {
	if w, ok := e.c.Index[v]; ok {
		return int32(w), nil
	}
	return 0, fmt.Errorf("exec: %s is not in the compiled carrier of %s",
		value.Format(v), e.b.Name)
}

func (e *tabledSemiring) Value(w int32) value.V { return e.c.Elems[w] }
func (e *tabledSemiring) Add(a, b int32) int32  { return e.c.Add(a, b) }
func (e *tabledSemiring) Mul(a, b int32) int32  { return e.c.Mul(a, b) }

// ForSemiring picks the backend for b: compiled when finite, closed,
// within the bisemigroup cap and every weight in weights interns;
// dynamic otherwise. Unlike order transforms, compiled
// bisemigroups are not memoised — Closure is an all-pairs solver, so one
// build already amortizes over N² matrix cells.
func ForSemiring(b *bsg.Bisemigroup, weights ...value.V) Semiring {
	if b.Finite() && b.Carrier().Size() <= compile.MaxBisemigroupCarrier {
		if eng, err := CompileSemiring(b); err == nil {
			for _, w := range weights {
				if _, err := eng.Intern(w); err != nil {
					return NewDynamicSemiring(b)
				}
			}
			return eng
		}
	}
	return NewDynamicSemiring(b)
}
