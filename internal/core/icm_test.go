package core

import (
	"math"
	"testing"
	"testing/quick"

	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

func TestNewICMValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewICM(g, []float64{0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewICM(g, []float64{0.5, 1.5}); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := NewICM(g, []float64{-0.1, 0.5}); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := NewICM(g, []float64{math.NaN(), 0.5}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := NewICM(g, []float64{0, 1}); err != nil {
		t.Errorf("boundary probabilities rejected: %v", err)
	}
}

func TestSamplePseudoStateMarginals(t *testing.T) {
	r := rng.New(5)
	g := graph.Path(4)
	m := MustNewICM(g, []float64{0.2, 0.5, 0.9})
	const trials = 100000
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		x := m.SamplePseudoState(r)
		for e := range counts {
			if x.Test(e) {
				counts[e]++
			}
		}
	}
	for e, p := range m.P {
		got := float64(counts[e]) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("edge %d marginal = %v want %v", e, got, p)
		}
	}
}

// TestSamplePseudoStateMatchesPerEdgeDraws pins the word-at-a-time
// SamplePseudoState to the per-edge reference: one Bernoulli draw per
// edge in EdgeID order, setting the bit on success. Both run from
// identically seeded generators; the states must be equal word for word
// (no bit set past the last edge) and the generators must end at the
// same position, at edge counts around the word boundaries and at the
// §IV-C scale, with probabilities pinned at 0 and 1 mixed in.
func TestSamplePseudoStateMatchesPerEdgeDraws(t *testing.T) {
	r := rng.New(41)
	for _, me := range []int{0, 1, 63, 64, 65, 14000} {
		g := graph.Random(r, max(2, me/2+2), me)
		p := make([]float64, me)
		for i := range p {
			switch k := r.Intn(10); k {
			case 0, 1:
				p[i] = float64(k)
			default:
				p[i] = r.Float64()
			}
		}
		m := MustNewICM(g, p)
		for seed := uint64(0); seed < 5; seed++ {
			a, b := rng.New(seed), rng.New(seed)
			got := m.SamplePseudoState(a)
			want := NewPseudoState(me)
			for id, pi := range m.P {
				if b.Bernoulli(pi) {
					want.Set(id)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("m=%d seed %d: %d words, want %d", me, seed, len(got), len(want))
			}
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("m=%d seed %d: word %d = %#x, want %#x", me, seed, w, got[w], want[w])
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("m=%d seed %d: generators diverged after the draw", me, seed)
			}
		}
	}
}

// stateOf packs per-edge activities into a pseudo-state.
func stateOf(active ...bool) PseudoState {
	x := NewPseudoState(len(active))
	for id, a := range active {
		if a {
			x.Set(id)
		}
	}
	return x
}

func TestLogProbPseudoState(t *testing.T) {
	g := graph.Path(3)
	m := MustNewICM(g, []float64{0.25, 0.5})
	x := stateOf(true, false)
	want := math.Log(0.25) + math.Log(0.5)
	if got := m.LogProbPseudoState(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("logprob = %v want %v", got, want)
	}
	// Zero-probability state.
	m2 := MustNewICM(graph.Path(2), []float64{0})
	if got := m2.LogProbPseudoState(stateOf(true)); !math.IsInf(got, -1) {
		t.Errorf("impossible state logprob = %v", got)
	}
}

func TestLogProbSumsToOne(t *testing.T) {
	// Sum of Pr[x] over all pseudo-states equals 1.
	err := quick.Check(func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := r.Intn(3) + 2
		mE := r.Intn(min(n*(n-1), 8) + 1)
		g := graph.Random(r, n, mE)
		p := make([]float64, mE)
		for i := range p {
			p[i] = r.Float64()
		}
		m := MustNewICM(g, p)
		total := 0.0
		for bits := 0; bits < 1<<mE; bits++ {
			x := NewPseudoState(mE)
			for e := 0; e < mE; e++ {
				if bits&(1<<e) != 0 {
					x.Set(e)
				}
			}
			total += math.Exp(m.LogProbPseudoState(x))
		}
		return math.Abs(total-1) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestActiveNodesMatchesReachability(t *testing.T) {
	g := graph.New(4)
	e01 := g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	e23 := g.MustAddEdge(2, 3)
	m := MustNewICM(g, []float64{0.5, 0.5, 0.5})
	x := NewPseudoState(3)
	x.Set(int(e01))
	x.Set(int(e23)) // parent 2 inactive, so 3 must stay inactive
	active := m.ActiveNodes([]graph.NodeID{0}, x)
	want := []bool{true, true, false, false}
	for v := range want {
		if active[v] != want[v] {
			t.Fatalf("active = %v", active)
		}
	}
}

func TestHasFlowAgreesWithActiveNodes(t *testing.T) {
	err := quick.Check(func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := r.Intn(8) + 2
		mE := r.Intn(min(n*(n-1), 20) + 1)
		g := graph.Random(r, n, mE)
		p := make([]float64, mE)
		for i := range p {
			p[i] = 0.5
		}
		m := MustNewICM(g, p)
		x := m.SamplePseudoState(r)
		u := graph.NodeID(r.Intn(n))
		active := m.ActiveNodes([]graph.NodeID{u}, x)
		for v := 0; v < n; v++ {
			if m.HasFlow(u, graph.NodeID(v), x) != active[v] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}
