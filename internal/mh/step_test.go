package mh

import (
	"math"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/fenwick"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// refChain is the reference for Sampler.Step: the same lazy
// Metropolis-Hastings update with the same draws, written the plain
// way. It branches on the flipped edge's activity for Z' and checks
// every condition after every accepted flip, where Step checks only the
// conditions the flip can break. It keeps its own state, tree and
// generator, so a run that agrees with Step step for step shows that
// Step's pruned check returns the full check's verdict.
type refChain struct {
	m       *core.ICM
	conds   []core.FlowCondition
	r       *rng.RNG
	x       core.PseudoState
	tree    *fenwick.Tree
	sc      *graph.Scratch
	uniform bool

	// rejectOn and rejectOff count flips the conditions rejected, by
	// whether the flip turned the edge on or off.
	rejectOn, rejectOff int
}

// newRefChain starts a reference chain at s's current state, with a copy
// of s's generator, so both make the same draws from here on.
func newRefChain(s *Sampler) *refChain {
	r := *s.r
	c := &refChain{
		m: s.m, conds: s.conds, r: &r,
		x:       append(core.PseudoState(nil), s.x...),
		sc:      graph.NewScratch(s.m.NumNodes()),
		uniform: s.uniform,
	}
	weights := make([]float64, s.m.NumEdges())
	for i := range weights {
		weights[i] = refWeight(s.m.P[i], c.x.Test(i))
	}
	c.tree = fenwick.New(weights)
	return c
}

// refWeight is the §III-C proposal weight: p for an inactive edge, 1-p
// for an active one.
func refWeight(p float64, active bool) float64 {
	if active {
		return 1 - p
	}
	return p
}

func (c *refChain) step() bool {
	zt := c.tree.Total()
	if zt <= 0 {
		return false
	}
	if c.r.Float64() < lazyProb {
		return false
	}
	var (
		i int
		a float64
	)
	if c.uniform {
		i = c.r.Intn(c.m.NumEdges())
		p := c.m.P[i]
		if c.x.Test(i) {
			if p >= 1 {
				return false
			}
			a = (1 - p) / p
		} else {
			if p <= 0 {
				return false
			}
			a = p / (1 - p)
		}
	} else {
		i = c.tree.Sample(c.r)
		p := c.m.P[i]
		var zNew float64
		if c.x.Test(i) {
			zNew = zt - (1 - p) + p
		} else {
			zNew = zt - p + (1 - p)
		}
		a = zt / zNew
	}
	if a < 1 && c.r.Float64() > a {
		return false
	}
	c.x.Flip(i)
	if !c.m.SatisfiesScratch(c.x, c.conds, c.sc) {
		if c.x.Test(i) {
			c.rejectOn++
		} else {
			c.rejectOff++
		}
		c.x.Flip(i)
		return false
	}
	c.tree.Set(i, refWeight(c.m.P[i], c.x.Test(i)))
	return true
}

// stepAgainstRef drives s and a reference chain started at its state
// for steps updates, failing on the first step where their verdicts,
// states or normalizing constants differ, or where the state violates a
// condition (checked by satisfies, independently of both chains).
func stepAgainstRef(t *testing.T, s *Sampler, steps int, satisfies func(core.PseudoState) bool) *refChain {
	t.Helper()
	ref := newRefChain(s)
	for k := 0; k < steps; k++ {
		got, want := s.Step(), ref.step()
		if got != want {
			t.Fatalf("step %d: Step() = %v, reference %v", k, got, want)
		}
		for w := range ref.x {
			if s.x[w] != ref.x[w] {
				t.Fatalf("step %d: state word %d = %#x, reference %#x", k, w, s.x[w], ref.x[w])
			}
		}
		if math.Float64bits(s.tree.Total()) != math.Float64bits(ref.tree.Total()) {
			t.Fatalf("step %d: Z = %v, reference %v", k, s.tree.Total(), ref.tree.Total())
		}
		if !satisfies(s.x) {
			t.Fatalf("step %d: state violates the conditions %+v", k, s.conds)
		}
	}
	return ref
}

// TestStepMatchesFullCheckServed runs conditioned chains on the served
// fixture next to the reference for 100,000 steps each, under two
// cond_pages-shaped evidence sets (one required flow, two forbidden):
// the benchmarks' set, and one drawn from seed 14, under which flips
// that create a forbidden flow occur (the benchmarks' set sees flips
// that break its required flow only).
func TestStepMatchesFullCheckServed(t *testing.T) {
	m := servedModel()
	sc := graph.NewScratch(m.NumNodes())
	var rejectOn, rejectOff int
	for _, conds := range [][]core.FlowCondition{servedEvidence(m), servedEvidenceFrom(m, 14)} {
		s, err := NewSampler(m, conds, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		ref := stepAgainstRef(t, s, 100000, func(x core.PseudoState) bool {
			return m.SatisfiesScratch(x, conds, sc)
		})
		rejectOn += ref.rejectOn
		rejectOff += ref.rejectOff
	}
	if rejectOn == 0 || rejectOff == 0 {
		t.Errorf("conditions rejected %d flips on and %d off; the runs must exercise both", rejectOn, rejectOff)
	}
}

// stepTestModel builds a small random ICM with the shapes the pruned
// check must get right: node 0 has no in-edges and node n-1 no
// out-edges, several node pairs are 2-cycles, and a few edges are
// pinned at p = 0 or 1.
func stepTestModel(r *rng.RNG) *core.ICM {
	n := 5 + r.Intn(8)
	g := graph.New(n)
	add := func(u, v graph.NodeID) {
		if u != v && u != graph.NodeID(n-1) && v != 0 && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	for k := 0; k < 2*n; k++ {
		add(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	for k := 0; k < 3; k++ {
		u, v := graph.NodeID(1+r.Intn(n-2)), graph.NodeID(1+r.Intn(n-2))
		add(u, v)
		add(v, u)
	}
	p := make([]float64, g.NumEdges())
	for i := range p {
		switch k := r.Intn(20); k {
		case 0, 1:
			p[i] = float64(k)
		default:
			p[i] = r.Float64()
		}
	}
	return core.MustNewICM(g, p)
}

// stepTestConds draws one to three conditions of the given polarities
// ("required", "forbidden" or "mixed"). Endpoints come from the
// designated source 0 and sink n-1, from both ends of an existing edge
// (so flipping that edge touches both), or at random.
func stepTestConds(r *rng.RNG, m *core.ICM, kind string) []core.FlowCondition {
	n := m.NumNodes()
	k := 1 + r.Intn(3)
	conds := make([]core.FlowCondition, 0, k)
	for len(conds) < k {
		var c core.FlowCondition
		switch r.Intn(3) {
		case 0:
			c.Source, c.Sink = 0, graph.NodeID(n-1)
		case 1:
			if m.NumEdges() == 0 {
				continue
			}
			e := m.G.Edge(graph.EdgeID(r.Intn(m.NumEdges())))
			c.Source, c.Sink = e.From, e.To
		default:
			c.Source, c.Sink = graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		}
		if c.Source == c.Sink {
			continue
		}
		switch kind {
		case "required":
			c.Require = true
		case "mixed":
			c.Require = r.Intn(2) == 0
		}
		conds = append(conds, c)
	}
	return conds
}

// TestStepMatchesFullCheckSmall runs the same differential on small
// random graphs, under required-only, forbidden-only and mixed
// condition sets, with the weighted and the uniform proposal, checking
// the conditions after every step against the closure reference
// Satisfies.
func TestStepMatchesFullCheckSmall(t *testing.T) {
	r := rng.New(23)
	var runs, rejectOn, rejectOff int
	for trial := 0; trial < 300; trial++ {
		m := stepTestModel(r)
		kind := []string{"required", "forbidden", "mixed"}[trial%3]
		conds := stepTestConds(r, m, kind)
		s, err := NewSampler(m, conds, rng.New(uint64(trial)))
		if err != nil {
			continue // unsatisfiable draw
		}
		s.SetUniformProposal(trial%2 == 1)
		ref := stepAgainstRef(t, s, 2000, func(x core.PseudoState) bool {
			return m.Satisfies(x, conds)
		})
		runs++
		rejectOn += ref.rejectOn
		rejectOff += ref.rejectOff
	}
	if runs < 150 || rejectOn == 0 || rejectOff == 0 {
		t.Errorf("%d satisfiable runs, %d flips rejected on and %d off: the trials must exercise both kinds", runs, rejectOn, rejectOff)
	}
}
