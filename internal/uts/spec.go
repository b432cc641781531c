// Package uts implements the Unbalanced Tree Search benchmark tree: an
// implicitly defined random tree in which any subtree can be generated
// entirely from its parent's 20-byte RNG state. The package provides the
// tree-shape families of the UTS distribution (binomial, geometric, hybrid,
// balanced), node/child generation, and a sequential depth-first counter
// that serves as the ground truth for every parallel implementation in this
// repository.
//
// The paper's experiments use the binomial family: the root has b0 children
// and every other node has m children with probability q and none with
// probability 1−q. With m·q slightly below 1 the tree is a critical
// branching process — expected subtree size is identical at every node but
// the distribution has enormous variance, which is what makes UTS an
// adversarial load-balancing workload.
package uts

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Kind selects the tree-shape family.
type Kind int

const (
	// Binomial trees: root has B0 children; every other node has M children
	// with probability Q, none otherwise. The paper's family.
	Binomial Kind = iota
	// Geometric trees: the branching factor is drawn from a geometric
	// distribution whose mean depends on depth through Shape, and the tree
	// is truncated below depth GenMx.
	Geometric
	// Hybrid trees: geometric down to Shift·GenMx, binomial below.
	Hybrid
	// Balanced trees: every node above depth GenMx has exactly B0 children.
	// Deterministic; used by tests that need an exactly known structure.
	Balanced
)

// String names the kind as in the UTS command-line convention.
func (k Kind) String() string {
	switch k {
	case Binomial:
		return "binomial"
	case Geometric:
		return "geometric"
	case Hybrid:
		return "hybrid"
	case Balanced:
		return "balanced"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Shape selects how a geometric tree's expected branching factor varies
// with depth: UTS's shape functions (-a), all with B0 at the root. UTS
// numbers them 0 linear, 1 exp-dec, 2 cyclic, 3 fixed, which is not the
// order of the constants below.
type Shape int

const (
	// ShapeFixed keeps the expected branching factor at B0 for all depths
	// above GenMx.
	ShapeFixed Shape = iota
	// ShapeLinear decreases the expected branching factor linearly with
	// depth, reaching zero at GenMx.
	ShapeLinear
	// ShapeExpDec decays the expected branching factor as a power of the
	// depth, B0·d^(−ln B0/ln GenMx): 1 at GenMx, below it deeper, and no
	// depth cut.
	ShapeExpDec
	// ShapeCyclic varies the expected branching factor as B0^sin(2πd/GenMx):
	// bands of GenMx/2 levels above 1 and below it in turn, cut above
	// 5·GenMx.
	ShapeCyclic
)

// String names the shape function.
func (s Shape) String() string {
	switch s {
	case ShapeFixed:
		return "fixed"
	case ShapeLinear:
		return "linear"
	case ShapeExpDec:
		return "expdec"
	case ShapeCyclic:
		return "cyclic"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// MaxChildren caps the number of children of any node, as in the UTS
// sources; it bounds stack growth per visit.
const MaxChildren = 100

// Spec fully describes a UTS tree. A Spec plus the rng stream name pins the
// tree exactly: every traversal of the same Spec visits the same node set.
type Spec struct {
	Name string // human-readable label for reports

	Kind Kind
	// Seed is the root RNG seed (UTS -r).
	Seed int32
	// B0 is the root branching factor (UTS -b). For Geometric trees it is
	// the expected branching factor at the root.
	B0 int
	// M is the number of children of an interior non-root node in Binomial
	// and Hybrid trees (UTS -m).
	M int
	// Q is the probability that a non-root node of a Binomial tree has M
	// children (UTS -q). Critical trees have M·Q ≈ 1.
	Q float64
	// GenMx is the depth cutoff for Geometric/Hybrid/Balanced trees
	// (UTS -d).
	GenMx int
	// Shape selects the geometric branching-factor profile (UTS -a).
	Shape Shape
	// Shift is the fraction of GenMx at which a Hybrid tree switches from
	// geometric to binomial behaviour (UTS -f).
	Shift float64
	// Granularity is the compute granularity (UTS -g): the number of RNG
	// spawns performed per child generated. Values above 1 scale the
	// per-node work — the knob for studying how computation grain affects
	// load-balancing overheads. 0 means 1. Note that the granularity is
	// part of the tree definition: a child's state is the g-th spawn, so
	// trees with different granularities are different trees.
	Granularity int
	// RNG names the stream family: "BRG" (default) or "ALFG".
	RNG string
}

// Stream returns the rng stream for the spec, defaulting to BRG.
func (sp *Spec) Stream() rng.Stream {
	if sp.RNG == "" {
		return rng.BRG{}
	}
	s := rng.New(sp.RNG)
	if s == nil {
		return rng.BRG{}
	}
	return s
}

// Validate reports whether the spec describes a generable tree.
func (sp *Spec) Validate() error {
	if sp.B0 < 0 || sp.B0 > 1<<20 {
		return fmt.Errorf("uts: B0 %d out of range [0, 2^20]", sp.B0)
	}
	switch sp.Kind {
	case Binomial:
		if sp.M < 0 || sp.M > MaxChildren {
			return fmt.Errorf("uts: M %d out of range [0, %d]", sp.M, MaxChildren)
		}
		if sp.Q < 0 || sp.Q > 1 {
			return fmt.Errorf("uts: Q %g out of range [0,1]", sp.Q)
		}
		if float64(sp.M)*sp.Q >= 1 {
			return fmt.Errorf("uts: supercritical binomial tree (M*Q = %g >= 1) is almost surely infinite", float64(sp.M)*sp.Q)
		}
	case Geometric, Balanced:
		if sp.GenMx <= 0 {
			return errors.New("uts: geometric/balanced trees need GenMx > 0")
		}
	case Hybrid:
		if sp.GenMx <= 0 {
			return errors.New("uts: hybrid trees need GenMx > 0")
		}
		if sp.Shift < 0 || sp.Shift > 1 {
			return fmt.Errorf("uts: Shift %g out of range [0,1]", sp.Shift)
		}
		if sp.Q < 0 || sp.Q > 1 || float64(sp.M)*sp.Q >= 1 {
			return fmt.Errorf("uts: hybrid binomial phase supercritical (M*Q = %g)", float64(sp.M)*sp.Q)
		}
	default:
		return fmt.Errorf("uts: unknown kind %d", sp.Kind)
	}
	if sp.Granularity < 0 {
		return fmt.Errorf("uts: negative granularity %d", sp.Granularity)
	}
	if sp.RNG != "" && rng.New(sp.RNG) == nil {
		return fmt.Errorf("uts: unknown rng %q", sp.RNG)
	}
	return nil
}

// ExpectedSize estimates the expected number of nodes. For binomial trees
// this is exact in expectation: 1 + B0/(1−M·Q). For other kinds it is a
// rough guide only (the geometric estimate ignores the cap at MaxChildren).
func (sp *Spec) ExpectedSize() float64 {
	switch sp.Kind {
	case Binomial:
		eps := 1 - float64(sp.M)*sp.Q
		if eps <= 0 {
			return math.Inf(1)
		}
		return 1 + float64(sp.B0)/eps
	case Balanced:
		n := 1.0
		level := 1.0
		for d := 0; d < sp.GenMx; d++ {
			level *= float64(sp.B0)
			n += level
		}
		return n
	case Geometric:
		// Expected branching factor b per level gives a geometric series,
		// summed until a level is negligible: the shapes' own depth cuts
		// end it, and 100·GenMx levels end exp-dec's, which has none.
		n := 1.0
		level := 1.0
		for d := 0; d < 100*sp.GenMx; d++ {
			level *= sp.geoBranch(d)
			n += level
			if level < 1e-9 {
				break
			}
		}
		return n
	case Hybrid:
		// Geometric phase estimate times expected binomial subtree size.
		cut := int(sp.Shift * float64(sp.GenMx))
		pre := *sp
		pre.Kind = Geometric
		pre.GenMx = cut
		eps := 1 - float64(sp.M)*sp.Q
		if eps <= 0 {
			return math.Inf(1)
		}
		return pre.ExpectedSize() / eps
	}
	return math.NaN()
}

// geoBranch is the expected branching factor of a geometric tree at depth
// d, UTS's shape function (uts_numChildren_geo): B0 at the root whatever
// the shape, and below it each shape with its own depth cut — fixed and
// linear at GenMx, cyclic above 5·GenMx, exp-dec none.
func (sp *Spec) geoBranch(d int) float64 {
	b0 := float64(sp.B0)
	if d == 0 {
		return b0
	}
	switch sp.Shape {
	case ShapeLinear:
		return b0 * max(0, 1-float64(d)/float64(sp.GenMx))
	case ShapeExpDec:
		return b0 * math.Pow(float64(d), -math.Log(b0)/math.Log(float64(sp.GenMx)))
	case ShapeCyclic:
		if d > 5*sp.GenMx {
			return 0
		}
		return math.Pow(b0, math.Sin(2*math.Pi*float64(d)/float64(sp.GenMx)))
	}
	if d >= sp.GenMx { // ShapeFixed
		return 0
	}
	return b0
}

// String gives a compact UTS-style description of the spec.
func (sp *Spec) String() string {
	switch sp.Kind {
	case Binomial:
		return fmt.Sprintf("%s[binomial r=%d b0=%d m=%d q=%g rng=%s]",
			sp.Name, sp.Seed, sp.B0, sp.M, sp.Q, sp.Stream().Name())
	case Geometric:
		return fmt.Sprintf("%s[geometric r=%d b0=%d d=%d shape=%s rng=%s]",
			sp.Name, sp.Seed, sp.B0, sp.GenMx, sp.Shape, sp.Stream().Name())
	case Hybrid:
		return fmt.Sprintf("%s[hybrid r=%d b0=%d m=%d q=%g d=%d f=%g rng=%s]",
			sp.Name, sp.Seed, sp.B0, sp.M, sp.Q, sp.GenMx, sp.Shift, sp.Stream().Name())
	case Balanced:
		return fmt.Sprintf("%s[balanced b0=%d d=%d]", sp.Name, sp.B0, sp.GenMx)
	}
	return sp.Name
}
