package testkit

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/ctic"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/unattrib"
)

// The golden regression corpus: pinned seeds through the estimators and
// learners, serialised under testdata/golden. Any behavioural drift in
// core/mh/unattrib/ctic — an RNG consumption change, a reordered loop, a
// tweaked proposal — shows up as a corpus diff. Regenerate intentionally
// with:
//
//	go test ./internal/testkit -run TestGolden -update-golden
//
// and review the diff like any other code change.

const goldenDigits = 9

type goldenEstimate struct {
	Name           string  `json:"name"`
	Exact          float64 `json:"exact"`
	Recursive      float64 `json:"recursive"`
	FlowProb       float64 `json:"flow_prob"`
	FlowProbChains float64 `json:"flow_prob_chains"`
}

func TestGoldenFlowEstimates(t *testing.T) {
	var out []goldenEstimate
	for _, c := range Cases(2026) {
		opts := mh.Options{BurnIn: 500, Thin: 2 * c.Model.NumEdges(), Samples: 3000}
		single, err := mh.FlowProb(c.Model, c.Source, c.Sink, c.Conds, opts, rng.New(41))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		chains, err := mh.FlowProbChains(c.Model, c.Source, c.Sink, c.Conds, opts, 4, 43)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		out = append(out, goldenEstimate{
			Name:           c.Name,
			Exact:          Round(c.Exact, goldenDigits),
			Recursive:      Round(c.Recursive, goldenDigits),
			FlowProb:       Round(single, goldenDigits),
			FlowProbChains: Round(chains, goldenDigits),
		})
	}
	Golden(t, "flow_estimates", out)
}

type goldenBetaEdge struct {
	From  graph.NodeID `json:"from"`
	To    graph.NodeID `json:"to"`
	Alpha float64      `json:"alpha"`
	Beta  float64      `json:"beta"`
}

func TestGoldenBetaICMPosterior(t *testing.T) {
	r := rng.New(707)
	m := NewModel(Uniform, r)
	bm := core.NewBetaICM(m.G)
	// 60 attributed cascades from rotating single sources.
	d := &core.AttributedEvidence{}
	for i := 0; i < 60; i++ {
		src := graph.NodeID(i % m.NumNodes())
		d.Add(core.FromCascade(m.SampleCascade(r, []graph.NodeID{src})))
	}
	if err := bm.TrainAttributed(d); err != nil {
		t.Fatal(err)
	}
	out := make([]goldenBetaEdge, bm.NumEdges())
	for id, b := range bm.B {
		e := bm.G.Edge(graph.EdgeID(id))
		out[id] = goldenBetaEdge{From: e.From, To: e.To, Alpha: b.Alpha, Beta: b.Beta}
	}
	Golden(t, "betaicm_posterior", out)
}

type goldenCTIC struct {
	Parents        []graph.NodeID `json:"parents"`
	KTruth         []float64      `json:"k_truth"`
	RTruth         []float64      `json:"r_truth"`
	KMean          []float64      `json:"k_mean"`
	KStd           []float64      `json:"k_std"`
	RMean          []float64      `json:"r_mean"`
	RStd           []float64      `json:"r_std"`
	AcceptanceRate float64        `json:"acceptance_rate"`
}

// goldenCTICTruth is the learner corpus's model: parents 0 and 1 of
// sink 2, with these transmission probabilities and delay rates.
var goldenCTICTruth = struct{ k, r []float64 }{[]float64{0.8, 0.3}, []float64{2, 1}}

// goldenCTICEpisodes simulates the learner corpus's 240 episodes from
// rotating source sets {0}, {1} and {0, 1}, each observed up to time 4.
func goldenCTICEpisodes(t *testing.T) []ctic.Episode {
	t.Helper()
	g := graph.New(3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	model, err := ctic.New(g, goldenCTICTruth.k, goldenCTICTruth.r)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(909)
	var eps []ctic.Episode
	sourceSets := [][]graph.NodeID{{0}, {1}, {0, 1}}
	for i := 0; i < 240; i++ {
		eps = append(eps, model.Simulate(r, sourceSets[i%len(sourceSets)], 4))
	}
	return eps
}

// goldenCTICOptions is the learner corpus's short schedule.
func goldenCTICOptions() ctic.LearnOptions {
	return ctic.LearnOptions{
		BurnIn: 200, Thin: 2, Samples: 400,
		StepK: 0.1, StepR: 0.3,
		PriorK:      dist.Uniform(),
		PriorRShape: 1.5, PriorRScale: 2,
	}
}

func TestGoldenCTICLearner(t *testing.T) {
	eps := goldenCTICEpisodes(t)
	kTruth, rTruth := goldenCTICTruth.k, goldenCTICTruth.r
	post, err := ctic.Learn(2, []graph.NodeID{0, 1}, eps, goldenCTICOptions(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	Golden(t, "ctic_learner", goldenCTIC{
		Parents:        post.Parents,
		KTruth:         kTruth,
		RTruth:         rTruth,
		KMean:          RoundSlice(post.KMean, goldenDigits),
		KStd:           RoundSlice(post.KStd, goldenDigits),
		RMean:          RoundSlice(post.RMean, goldenDigits),
		RStd:           RoundSlice(post.RStd, goldenDigits),
		AcceptanceRate: Round(post.AcceptanceRate, goldenDigits),
	})
}

type goldenUnattrib struct {
	Sink           graph.NodeID `json:"sink"`
	Mean           []float64    `json:"mean"`
	StdDev         []float64    `json:"std_dev"`
	AcceptanceRate float64      `json:"acceptance_rate"`
}

// goldenBayesOptions is the joint-Bayes corpus's schedule.
var goldenBayesOptions = unattrib.BayesOptions{BurnIn: 400, Thin: 3, Samples: 800, Step: 0.08}

func TestGoldenUnattribPosterior(t *testing.T) {
	s := unattrib.TableI()
	post, err := unattrib.JointBayes(s, goldenBayesOptions, rng.New(313))
	if err != nil {
		t.Fatal(err)
	}
	Golden(t, "unattrib_posterior", goldenUnattrib{
		Sink:           s.Sink,
		Mean:           RoundSlice(post.Mean, goldenDigits),
		StdDev:         RoundSlice(post.StdDev, goldenDigits),
		AcceptanceRate: Round(post.AcceptanceRate, goldenDigits),
	})
}

type goldenBatch struct {
	Name string `json:"name"`
	// Flow holds FlowProbBatch's estimate for every pair, in pair order.
	Flow []float64 `json:"flow"`
	// CommunityFirst is CommunityFlowProbsBatch's row for the first
	// source; CommunityDigest hashes every row.
	CommunityFirst  []float64 `json:"community_first"`
	CommunityDigest string    `json:"community_digest"`
	// ImpactMeans is each set's mean impact; ImpactDigest hashes every
	// sample of every set.
	ImpactMeans  []float64 `json:"impact_means"`
	ImpactDigest string    `json:"impact_digest"`
	// RRSets and RRCovered describe the BuildRRPool pool: its set count
	// and how many (node, set) memberships its cover holds. RRDigest
	// hashes the cover, row by row, and the roots.
	RRSets    int    `json:"rr_sets"`
	RRCovered int    `json:"rr_covered"`
	RRDigest  string `json:"rr_digest"`
}

// goldenBatchModel draws a 40-node, 100-edge random model whose edge
// probabilities are uniform in [lo, hi): [0.3, 0.5) is near the
// percolation threshold (mean out-degree 2.5), [0.5, 1) well past it.
func goldenBatchModel(seed uint64, lo, hi float64) *core.ICM {
	r := rng.New(seed)
	g := graph.Random(r, 40, 100)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Uniform(lo, hi)
	}
	return core.MustNewICM(g, p)
}

// goldenModel is one model of the batched corpus, with the seed its
// evidence set is drawn from.
type goldenModel struct {
	name   string
	m      *core.ICM
	evSeed uint64
}

func goldenBatchModels() []goldenModel {
	return []goldenModel{
		{"near_critical", goldenBatchModel(61, 0.3, 0.5), 62},
		{"supercritical", goldenBatchModel(63, 0.5, 1), 64},
	}
}

// goldenRRTargets is the community the conditioned RR pools draw their
// roots from.
var goldenRRTargets = []graph.NodeID{0, 3, 5, 7, 11, 13, 17, 19, 23, 29}

// goldenRRPool builds the corpus's RR pool on m: 50 thinned states of
// the batched estimators' schedule, 128 roots each.
func goldenRRPool(m *core.ICM, targets []graph.NodeID, conds []core.FlowCondition) (*mh.RRPool, error) {
	opts := mh.Options{BurnIn: 4 * m.NumEdges(), Thin: m.NumEdges(), Samples: 50}
	return mh.BuildRRPool(m, targets, conds, 128, 0, opts, rng.New(74))
}

// goldenEvidence draws one required and one forbidden flow over four
// distinct nodes, each pair connected in the full graph, redrawing
// until a sampler can satisfy the set.
func goldenEvidence(t *testing.T, m *core.ICM, seed uint64) []core.FlowCondition {
	t.Helper()
	r := rng.New(seed)
	for try := 0; try < 1000; try++ {
		used := map[graph.NodeID]bool{}
		var conds []core.FlowCondition
		for len(conds) < 2 {
			u, v := graph.NodeID(r.Intn(m.NumNodes())), graph.NodeID(r.Intn(m.NumNodes()))
			if u == v || used[u] || used[v] || !m.G.HasPath(u, v, graph.AllEdges) {
				continue
			}
			used[u], used[v] = true, true
			conds = append(conds, core.FlowCondition{Source: u, Sink: v, Require: len(conds) == 0})
		}
		if _, err := mh.NewSampler(m, conds, rng.New(1)); err == nil {
			return conds
		}
	}
	t.Fatal("no satisfiable evidence drawn")
	return nil
}

// fnvWords folds 64-bit words into an FNV-1a hash, printed as hex.
type fnvWords uint64

func newFNVWords() fnvWords { return 14695981039346656037 }

func (h *fnvWords) add(w uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnvWords(w >> (8 * i) & 0xff)
		*h *= 1099511628211
	}
}

func (h fnvWords) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// TestGoldenBatchEstimators pins the batched estimators — FlowProbBatch,
// CommunityFlowProbsBatch, ImpactDistributionBatch and BuildRRPool's
// cover — on a near-critical and a supercritical model, each with and
// without evidence. The batch shapes cross 64 queries (70 pairs, 66
// sources, 10 impact sets over 70 sources, 128 roots per state), so the
// corpus holds whatever traversal answers each query.
func TestGoldenBatchEstimators(t *testing.T) {
	var out []goldenBatch
	for _, mc := range goldenBatchModels() {
		m := mc.m
		n := m.NumNodes()
		r := rng.New(65)
		pairs := make([]mh.FlowPair, 70)
		for i := range pairs {
			pairs[i] = mh.FlowPair{Source: graph.NodeID(r.Intn(n)), Sink: graph.NodeID(r.Intn(n))}
		}
		sources := make([]graph.NodeID, 66)
		for i := range sources {
			sources[i] = graph.NodeID(r.Intn(n))
		}
		sets := make([][]graph.NodeID, 10)
		for i := range sets {
			sets[i] = make([]graph.NodeID, 7)
			for j := range sets[i] {
				sets[i][j] = graph.NodeID(r.Intn(n))
			}
		}
		for _, conditioned := range []bool{false, true} {
			name := mc.name
			var conds []core.FlowCondition
			var rrTargets []graph.NodeID
			if conditioned {
				name += "_conditioned"
				conds = goldenEvidence(t, m, mc.evSeed)
				rrTargets = goldenRRTargets
			}
			opts := mh.Options{BurnIn: 4 * m.NumEdges(), Thin: m.NumEdges(), Samples: 200}
			flow, err := mh.FlowProbBatch(m, pairs, conds, opts, rng.New(71))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			comm, err := mh.CommunityFlowProbsBatch(m, sources, conds, opts, rng.New(72))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			impacts, err := mh.ImpactDistributionBatch(m, sets, conds, opts, rng.New(73))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pool, err := goldenRRPool(m, rrTargets, conds)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			g := goldenBatch{Name: name, Flow: RoundSlice(flow, goldenDigits), CommunityFirst: RoundSlice(comm[0], goldenDigits)}
			h := newFNVWords()
			for _, row := range comm {
				for _, p := range row {
					h.add(math.Float64bits(p))
				}
			}
			g.CommunityDigest = h.String()
			h = newFNVWords()
			for _, series := range impacts {
				sum := 0
				for _, k := range series {
					sum += k
					h.add(uint64(k))
				}
				g.ImpactMeans = append(g.ImpactMeans, Round(float64(sum)/float64(len(series)), goldenDigits))
			}
			g.ImpactDigest = h.String()
			g.RRSets = pool.NumSets
			h = newFNVWords()
			for v := 0; v < n; v++ {
				for _, w := range pool.Cover.Row(v) {
					g.RRCovered += bits.OnesCount64(w)
					h.add(w)
				}
			}
			for _, root := range pool.Roots {
				h.add(uint64(root))
			}
			g.RRDigest = h.String()
			out = append(out, g)
		}
	}
	Golden(t, "batch_estimates", out)
}

type goldenSketchRanking struct {
	Name string `json:"name"`
	// Seeds, Gains and Estimate are SketchGreedy with k = n and no
	// candidate list: the full ranking, past saturation.
	Seeds    []graph.NodeID `json:"seeds"`
	Gains    []float64      `json:"gains"`
	Estimate float64        `json:"estimate"`
	// The Restricted fields rank a shuffled 30-node candidate list that
	// repeats 8 of its nodes.
	RestrictedSeeds    []graph.NodeID `json:"restricted_seeds"`
	RestrictedGains    []float64      `json:"restricted_gains"`
	RestrictedEstimate float64        `json:"restricted_estimate"`
}

// TestGoldenSketchGreedy pins influence.SketchGreedy's whole order on
// the batched corpus's four RR pools: every seed, gain and estimate at
// k = n, with all nodes as candidates and with a shuffled, duplicated
// subset. The ranking runs to saturation and past it, so the corpus
// holds the tie-breaks among equal gains and the order of the nodes
// that cover nothing new.
func TestGoldenSketchGreedy(t *testing.T) {
	var out []goldenSketchRanking
	for _, mc := range goldenBatchModels() {
		m := mc.m
		n := m.NumNodes()
		perm := rng.New(75)
		restricted := make([]graph.NodeID, n)
		for v := range restricted {
			restricted[v] = graph.NodeID(v)
		}
		perm.Shuffle(n, func(i, j int) { restricted[i], restricted[j] = restricted[j], restricted[i] })
		restricted = append(restricted[:30], restricted[:8]...)
		for _, conditioned := range []bool{false, true} {
			name := mc.name
			var conds []core.FlowCondition
			var rrTargets []graph.NodeID
			if conditioned {
				name += "_conditioned"
				conds = goldenEvidence(t, m, mc.evSeed)
				rrTargets = goldenRRTargets
			}
			pool, err := goldenRRPool(m, rrTargets, conds)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			all, err := influence.SketchGreedy(pool, n, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sub, err := influence.SketchGreedy(pool, n, restricted)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, goldenSketchRanking{
				Name:               name,
				Seeds:              all.Seeds,
				Gains:              RoundSlice(all.MarginalGains, goldenDigits),
				Estimate:           Round(all.SpreadEstimate, goldenDigits),
				RestrictedSeeds:    sub.Seeds,
				RestrictedGains:    RoundSlice(sub.MarginalGains, goldenDigits),
				RestrictedEstimate: Round(sub.SpreadEstimate, goldenDigits),
			})
		}
	}
	Golden(t, "sketch_greedy", out)
}
