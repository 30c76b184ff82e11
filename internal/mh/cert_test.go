package mh

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// certChecker checks a sampler's certificates against the closure
// reference: Reachable on the graph for forward sets, and Reachable on
// its transpose (edge i reversed keeps id i) for backward sets.
type certChecker struct {
	g, rev *graph.DiGraph
}

func newCertChecker(g *graph.DiGraph) certChecker {
	rev := graph.New(g.NumNodes())
	for _, e := range g.Edges() {
		rev.MustAddEdge(e.To, e.From)
	}
	return certChecker{g: g, rev: rev}
}

// check fails unless every certificate of s proves its condition in the
// chain state: a witness is an active source~>sink path; a forward set
// holds every node source reaches but not sink; a backward set holds
// every node that reaches sink but not source. mark must hold exactly
// the members.
func (cc certChecker) check(t *testing.T, s *Sampler, step int) {
	t.Helper()
	active := func(id graph.EdgeID) bool { return s.x.Test(int(id)) }
	for _, certs := range s.certs {
		for k := range certs {
			c := &certs[k]
			marked := 0
			for _, w := range c.mark {
				marked += bits.OnesCount64(w)
			}
			for _, id := range c.members {
				if !c.mark.Test(int(id)) {
					t.Fatalf("step %d: %+v: member %d is not marked", step, c.FlowCondition, id)
				}
			}
			if marked != len(c.members) {
				t.Fatalf("step %d: %+v: %d marks for %d members", step, c.FlowCondition, marked, len(c.members))
			}
			if c.Require != (c.key == keyEdge) {
				t.Fatalf("step %d: %+v has certificate key %d", step, c.FlowCondition, c.key)
			}
			switch c.key {
			case keyEdge:
				v := c.Source
				for _, id := range c.members {
					e := cc.g.Edge(id)
					if !s.x.Test(int(id)) || e.From != v {
						t.Fatalf("step %d: %+v: witness %v is not an active path (edge %d)", step, c.FlowCondition, c.members, id)
					}
					v = e.To
				}
				if v != c.Sink {
					t.Fatalf("step %d: %+v: witness %v ends at %d", step, c.FlowCondition, c.members, v)
				}
			case keyTail:
				cc.checkSet(t, step, c, cc.g.Reachable([]graph.NodeID{c.Source}, active), c.Sink)
			case keyHead:
				cc.checkSet(t, step, c, cc.rev.Reachable([]graph.NodeID{c.Sink}, active), c.Source)
			}
		}
	}
}

// checkSet fails unless c's node set contains every node in want and
// not the opposite endpoint.
func (cc certChecker) checkSet(t *testing.T, step int, c *certificate, want []bool, other graph.NodeID) {
	t.Helper()
	for v, in := range want {
		if in && !c.mark.Test(v) {
			t.Fatalf("step %d: %+v: set (key %d) misses node %d", step, c.FlowCondition, c.key, v)
		}
	}
	if c.mark.Test(int(other)) {
		t.Fatalf("step %d: %+v: set (key %d) holds the other endpoint %d", step, c.FlowCondition, c.key, other)
	}
}

// certStats counts what a certificate run exercised.
type certStats struct {
	renewed        int // steps on which some certificate changed
	renewRejected  int // of which the conditions then rejected the flip
	rejectOn       int
	rejectOff      int
	selfFlows      int // conditions u~>u
	duplicateConds int
}

// runCertified steps s next to the reference chain, checking after every
// step that the verdicts agree and that every certificate holds, and
// counts certificate renewals, including those on flips that the
// conditions then rejected.
func runCertified(t *testing.T, s *Sampler, steps int, st *certStats) {
	t.Helper()
	cc := newCertChecker(s.m.G)
	cc.check(t, s, -1)
	ref := newRefChain(s)
	var before [][]int32
	for k := 0; k < steps; k++ {
		before = before[:0]
		for _, certs := range s.certs {
			for _, c := range certs {
				before = append(before, append([]int32(nil), c.members...))
			}
		}
		rejected := ref.rejectOn + ref.rejectOff
		if got, want := s.Step(), ref.step(); got != want {
			t.Fatalf("step %d: Step() = %v, reference %v", k, got, want)
		}
		if !slices.Equal(s.x, ref.x) {
			t.Fatalf("step %d: state differs from the reference", k)
		}
		cc.check(t, s, k)
		changed, i := false, 0
		for _, certs := range s.certs {
			for _, c := range certs {
				changed = changed || !slices.Equal(before[i], c.members)
				i++
			}
		}
		if changed {
			st.renewed++
			if ref.rejectOn+ref.rejectOff > rejected {
				st.renewRejected++
			}
		}
	}
	st.rejectOn += ref.rejectOn
	st.rejectOff += ref.rejectOff
}

// TestCertificatesHoldServed checks every certificate after every step
// on the served fixture, under cond_pages-shaped evidence from several
// seeds.
func TestCertificatesHoldServed(t *testing.T) {
	m := servedModel()
	var st certStats
	for _, seed := range []uint64{4, 7, 14, 19} {
		s, err := NewSampler(m, servedEvidenceFrom(m, seed), rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		runCertified(t, s, 25000, &st)
	}
	t.Logf("%+v", st)
	if st.renewed == 0 || st.rejectOn == 0 || st.rejectOff == 0 {
		t.Errorf("runs renewed %d times and rejected %d flips on, %d off; they must exercise all three", st.renewed, st.rejectOn, st.rejectOff)
	}
}

// certTestConds is stepTestConds plus, at random, a duplicate of one of
// its conditions and a required self-flow.
func certTestConds(r *rng.RNG, m *core.ICM, kind string) []core.FlowCondition {
	conds := stepTestConds(r, m, kind)
	if r.Intn(3) == 0 {
		conds = append(conds, conds[r.Intn(len(conds))])
	}
	if r.Intn(3) == 0 {
		u := graph.NodeID(r.Intn(m.NumNodes()))
		conds = append(conds, core.FlowCondition{Source: u, Sink: u, Require: true})
	}
	r.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
	return conds
}

// TestCertificatesHoldSmall runs the certificate check on small random
// graphs with 2-cycles, under required-only, forbidden-only and mixed
// condition sets that may carry a duplicate and a required self-flow,
// with the weighted and the uniform proposal. The runs must include
// flips on which one condition renews its certificate and a later one
// rejects the flip. A forbidden self-flow gets no sampler at all.
func TestCertificatesHoldSmall(t *testing.T) {
	r := rng.New(29)
	var st certStats
	runs := 0
	for trial := 0; trial < 300; trial++ {
		m := stepTestModel(r)
		kind := []string{"required", "forbidden", "mixed"}[trial%3]
		conds := certTestConds(r, m, kind)
		s, err := NewSampler(m, conds, rng.New(uint64(trial)))
		if err != nil {
			continue // unsatisfiable draw
		}
		for i, c := range conds {
			if c.Source == c.Sink {
				st.selfFlows++
			}
			if slices.Contains(conds[:i], c) {
				st.duplicateConds++
			}
		}
		s.SetUniformProposal(trial%2 == 1)
		runCertified(t, s, 2000, &st)
		runs++
	}
	t.Logf("%d satisfiable runs; %+v", runs, st)
	if runs < 150 || st.renewRejected == 0 || st.rejectOn == 0 || st.rejectOff == 0 || st.duplicateConds == 0 || st.selfFlows == 0 {
		t.Errorf("%d satisfiable runs; %+v: the trials must exercise every case", runs, st)
	}
	m := stepTestModel(rng.New(1))
	self := []core.FlowCondition{{Source: 1, Sink: 1}}
	if _, err := NewSampler(m, self, rng.New(1)); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("NewSampler with a forbidden self-flow: err %v, want ErrUnsatisfiable", err)
	}
}
