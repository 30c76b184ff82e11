package influence

import (
	"math"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/testkit"
)

// sketchTestOptions returns a pool budget sized for the small fixtures:
// plenty of chain samples so the statistical gates get tight bands, at
// negligible cost on 20-node graphs.
func sketchTestOptions(numEdges, chainSamples, perSample int) SketchOptions {
	chain := mh.DefaultOptions(numEdges)
	chain.Samples = chainSamples
	return SketchOptions{Chain: chain, RootsPerSample: perSample}
}

// TestSketchGreedyDeterministic: same seed, same inputs ⇒ bit-identical
// pool-backed selection, and SpreadEstimate == sum(MarginalGains) ==
// SketchSpread of the selected set, exactly (the estimator contract).
func TestSketchGreedyDeterministic(t *testing.T) {
	r := rng.New(81)
	g := graph.PreferentialAttachment(r, 50, 2, 0.3)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.4
	}
	m := core.MustNewICM(g, p)
	opts := sketchTestOptions(g.NumEdges(), 32, 64)
	a, poolA, err := Maximize(m, 4, nil, nil, opts, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Maximize(m, 4, nil, nil, opts, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] || a.MarginalGains[i] != b.MarginalGains[i] {
			t.Fatalf("identical runs diverged: %v/%v vs %v/%v", a.Seeds, a.MarginalGains, b.Seeds, b.MarginalGains)
		}
	}
	if a.SpreadEstimate != b.SpreadEstimate {
		t.Fatalf("estimates diverged: %v vs %v", a.SpreadEstimate, b.SpreadEstimate)
	}
	sum := 0.0
	for _, gn := range a.MarginalGains {
		sum += gn
	}
	if a.SpreadEstimate != sum {
		t.Fatalf("SpreadEstimate %v != sum(MarginalGains) %v", a.SpreadEstimate, sum)
	}
	if got := SketchSpread(poolA, a.Seeds); got != a.SpreadEstimate {
		t.Fatalf("SketchSpread %v != SpreadEstimate %v on the same pool", got, a.SpreadEstimate)
	}
}

// TestMaximizeWidthInvariant: the deprecated Words option is ignored —
// every setting must produce the identical seed set, gains, and
// estimate.
func TestMaximizeWidthInvariant(t *testing.T) {
	r := rng.New(82)
	g := graph.PreferentialAttachment(r, 40, 2, 0.25)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.35
	}
	m := core.MustNewICM(g, p)
	opts := sketchTestOptions(g.NumEdges(), 16, 192)
	opts.Words = 1
	ref, _, err := Maximize(m, 3, nil, nil, opts, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{2, 3, 5, 8, 16} {
		opts.Words = words
		res, _, err := Maximize(m, 3, nil, nil, opts, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Seeds {
			if res.Seeds[i] != ref.Seeds[i] {
				t.Fatalf("words=%d: seeds %v, want %v", words, res.Seeds, ref.Seeds)
			}
		}
		if res.SpreadEstimate != ref.SpreadEstimate {
			t.Fatalf("words=%d: estimate %v, want %v", words, res.SpreadEstimate, ref.SpreadEstimate)
		}
	}
}

// TestSketchGreedyPermutationInvariance: the selection is a function of
// the candidate SET — shuffles and duplicates change nothing.
func TestSketchGreedyPermutationInvariance(t *testing.T) {
	r := rng.New(83)
	g := graph.PreferentialAttachment(r, 60, 2, 0.3)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.3
	}
	m := core.MustNewICM(g, p)
	pool, err := mh.BuildRRPool(m, nil, nil, 64, 0, mh.Options{BurnIn: 200, Thin: 50, Samples: 24}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	base := make([]graph.NodeID, n)
	for v := range base {
		base[v] = graph.NodeID(v)
	}
	ref, err := SketchGreedy(pool, 5, base)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(84)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]graph.NodeID{}, base...)
		perm.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if trial == 4 {
			shuffled = append(shuffled, shuffled[:7]...)
		}
		res, err := SketchGreedy(pool, 5, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Seeds {
			if res.Seeds[i] != ref.Seeds[i] || res.MarginalGains[i] != ref.MarginalGains[i] {
				t.Fatalf("trial %d: %v/%v, want %v/%v", trial, res.Seeds, res.MarginalGains, ref.Seeds, ref.MarginalGains)
			}
		}
	}
}

// TestSketchGreedyTargets: a community-targeted pool scores spread over
// the target set only — a seed covering the whole community cannot be
// beaten, and estimates never exceed the community size.
func TestSketchGreedyTargets(t *testing.T) {
	// Hub 0 feeds 1..4 with certain edges; 5..9 are a certain chain
	// 5->6->...->9 disjoint from the hub.
	g := graph.New(10)
	for v := 1; v <= 4; v++ {
		g.MustAddEdge(0, graph.NodeID(v))
	}
	for v := 5; v < 9; v++ {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 1
	}
	m := core.MustNewICM(g, p)
	targets := []graph.NodeID{1, 2, 3, 4}
	res, pool, err := Maximize(m, 1, targets, nil, sketchTestOptions(g.NumEdges(), 16, 64), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("community seed = %v, want the hub 0", res.Seeds)
	}
	if res.SpreadEstimate != 4 {
		t.Fatalf("community spread = %v, want exactly 4 (certain edges)", res.SpreadEstimate)
	}
	if pool.Universe != 4 {
		t.Fatalf("universe = %d, want 4", pool.Universe)
	}
}

// TestSketchSpreadWithinAnalyticBand is the testkit band gate of the
// sketch estimator: on analytically tractable DAGs, the pool estimate
// of the selected set's spread must land inside the binomial tolerance
// band around the exact sizedist mean, and so must an independent
// Monte-Carlo estimate of the same set. The tolerance discounts the
// pool to its chain-sample count, which is conservative — every thinned
// state contributes 64 fresh roots.
func TestSketchSpreadWithinAnalyticBand(t *testing.T) {
	const chainSamples = 512
	r := rng.New(85)
	for trial := 0; trial < 4; trial++ {
		g := graph.RandomDAG(r, 18, 30)
		p := make([]float64, g.NumEdges())
		for i := range p {
			p[i] = 0.1 + 0.8*r.Float64()
		}
		m := core.MustNewICM(g, p)
		n := float64(m.NumNodes())
		res, _, err := Maximize(m, 3, nil, nil, sketchTestOptions(g.NumEdges(), chainSamples, 64), rng.New(uint64(200+trial)))
		if err != nil {
			t.Fatal(err)
		}
		exactMean, sd := sizedistBand(t, m, res.Seeds)
		tol := testkit.DefaultTolerance(chainSamples)
		if !tol.Accept(exactMean/n, res.SpreadEstimate/n) {
			lo, hi := tol.Band(exactMean / n)
			t.Errorf("trial %d seeds %v: sketch estimate %v outside band [%v, %v] of exact %v",
				trial, res.Seeds, res.SpreadEstimate, lo*n, hi*n, exactMean)
		}
		const mcSamples = 4000
		mc := Spread(m, res.Seeds, mcSamples, rng.New(uint64(300+trial)))
		if band := 5 * sd / math.Sqrt(mcSamples); math.Abs(mc-exactMean) > band {
			t.Errorf("trial %d seeds %v: MC cross-check %v outside analytic band %v +/- %v",
				trial, res.Seeds, mc, exactMean, band)
		}
	}
}

// TestSketchSeedQualityMatchesMCGreedy compares the two selection
// backends in EXACT terms: the analytic expected spread of the
// sketch-selected set must be at least the lower tolerance band edge of
// the MC-greedy set's analytic spread — matched quality, judged by the
// sizedist oracle rather than noisy estimates of each other.
func TestSketchSeedQualityMatchesMCGreedy(t *testing.T) {
	const chainSamples = 512
	r := rng.New(86)
	for trial := 0; trial < 4; trial++ {
		g := graph.RandomDAG(r, 16, 28)
		p := make([]float64, g.NumEdges())
		for i := range p {
			p[i] = 0.2 + 0.6*r.Float64()
		}
		m := core.MustNewICM(g, p)
		n := float64(m.NumNodes())
		sk, _, err := Maximize(m, 3, nil, nil, sketchTestOptions(g.NumEdges(), chainSamples, 64), rng.New(uint64(400+trial)))
		if err != nil {
			t.Fatal(err)
		}
		mc, err := Greedy(m, 3, Options{Samples: 800}, rng.New(uint64(500+trial)))
		if err != nil {
			t.Fatal(err)
		}
		exactSketch, _ := sizedistBand(t, m, sk.Seeds)
		exactMC, _ := sizedistBand(t, m, mc.Seeds)
		lo, _ := testkit.DefaultTolerance(chainSamples).Band(exactMC / n)
		if exactSketch/n < lo {
			t.Errorf("trial %d: sketch seeds %v (exact spread %v) below quality band floor %v of MC seeds %v (exact %v)",
				trial, sk.Seeds, exactSketch, lo*n, mc.Seeds, exactMC)
		}
	}
}
