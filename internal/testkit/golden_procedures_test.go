package testkit

import (
	"math"
	"sort"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/ctic"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

// Golden vectors for the paper procedures that exist once in the
// library: the cascade walk (§III-A), pseudo-state enumeration (§II),
// retweet-chain recovery (§IV-B), Saito et al.'s EM (Appendix) and the
// random-walk Metropolis loop both edge learners run (§V-B's joint
// Bayes and the continuous-time learner).
// Unlike the rest of the corpus these pin bits: probabilities and
// estimates are stored unrounded (JSON's shortest round-trip form
// restores every bit) and per-record annotations as FNV-1a digests.

// boolWord maps a flag to the word the digests fold.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cascadeDigest folds every annotation of c — ActiveNodes, ActiveEdges,
// TriedEdges, Round and Parent, in that order — into one digest.
func cascadeDigest(c *core.Cascade) string {
	h := newFNVWords()
	for _, a := range c.ActiveNodes {
		h.add(boolWord(a))
	}
	for _, a := range c.ActiveEdges {
		h.add(boolWord(a))
	}
	for _, a := range c.TriedEdges {
		h.add(boolWord(a))
	}
	for _, round := range c.Round {
		h.add(uint64(int64(round)))
	}
	for _, p := range c.Parent {
		h.add(uint64(int64(p)))
	}
	return h.String()
}

type goldenCascades struct {
	Name string `json:"name"`
	// Digests and Active hold each cascade's digest and active-node
	// count, in draw order.
	Digests []string `json:"digests"`
	Active  []int    `json:"active"`
	// Next is the generator's next Uint64 after the draws: it pins how
	// many values the draws consumed.
	Next uint64 `json:"next"`
}

// paperFixtureICM is the §IV-C fixture: graph.Random 6000/14000 from
// seed 2, p = 0.2 + 0.4U.
func paperFixtureICM() *core.ICM {
	r := rng.New(2)
	g := graph.Random(r, 6000, 14000)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.4*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// goldenSourceSets draws count source sets on n nodes: single sources,
// pairs, a repeated source and one empty set.
func goldenSourceSets(n, count int, seed uint64) [][]graph.NodeID {
	r := rng.New(seed)
	out := make([][]graph.NodeID, count)
	for i := range out {
		u := graph.NodeID(r.Intn(n))
		switch i % 4 {
		case 0:
			out[i] = []graph.NodeID{u}
		case 1:
			out[i] = []graph.NodeID{u, graph.NodeID(r.Intn(n))}
		case 2:
			out[i] = []graph.NodeID{u, u, graph.NodeID(r.Intn(n))}
		case 3:
			if i == 3 {
				out[i] = nil
			} else {
				out[i] = []graph.NodeID{u}
			}
		}
	}
	return out
}

// TestGoldenCascadeWalk pins SampleCascade and CascadeFromPseudoState:
// every cascade's annotations and the generator's position after the
// draws, on two small models and on the §IV-C fixture. The twitter
// generator's corpora and every training set drawn through SampleCascade
// depend on exactly these draws.
func TestGoldenCascadeWalk(t *testing.T) {
	models := []struct {
		name  string
		m     *core.ICM
		count int
	}{
		{"uniform", NewModel(Uniform, rng.New(801)), 60},
		{"preferential", NewModel(Preferential, rng.New(802)), 60},
		{"paper_fixture", paperFixtureICM(), 24},
	}
	var out []goldenCascades
	for i, mc := range models {
		sets := goldenSourceSets(mc.m.NumNodes(), mc.count, 810+uint64(i))
		lazy := goldenCascades{Name: mc.name + "_sample_cascade"}
		r := rng.New(820 + uint64(i))
		for _, sources := range sets {
			c := mc.m.SampleCascade(r, sources)
			lazy.Digests = append(lazy.Digests, cascadeDigest(c))
			lazy.Active = append(lazy.Active, c.NumActive())
		}
		lazy.Next = r.Uint64()
		derived := goldenCascades{Name: mc.name + "_from_pseudo_state"}
		r = rng.New(830 + uint64(i))
		for _, sources := range sets {
			c := mc.m.CascadeFromPseudoState(sources, mc.m.SamplePseudoState(r))
			derived.Digests = append(derived.Digests, cascadeDigest(c))
			derived.Active = append(derived.Active, c.NumActive())
		}
		derived.Next = r.Uint64()
		out = append(out, lazy, derived)
	}
	Golden(t, "cascade_walk", out)
}

type goldenEnumCond struct {
	Source graph.NodeID         `json:"source"`
	Sink   graph.NodeID         `json:"sink"`
	Conds  []core.FlowCondition `json:"conds"`
	Prob   float64              `json:"prob"`
	Err    string               `json:"err,omitempty"`
}

type goldenEnumImpact struct {
	Sources []graph.NodeID `json:"sources"`
	Dist    []float64      `json:"dist"`
	Err     string         `json:"err,omitempty"`
}

type goldenEnum struct {
	Name string `json:"name"`
	// Flow[u][v] is EnumFlowProb({u}, v); Pair[v] is EnumFlowProb from
	// the first and last node together.
	Flow        [][]float64        `json:"flow"`
	Pair        []float64          `json:"pair"`
	Conditional []goldenEnumCond   `json:"conditional"`
	Impact      []goldenEnumImpact `json:"impact"`
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestGoldenEnumeration pins the three pseudo-state enumeration oracles
// on two models within core.MaxEnumEdges: a uniform random graph and a
// DAG with probabilities pinned at 0 and 1 on three edges, which the
// recursion prunes as zero-probability branches. The conditional cases
// include conditions of probability zero, and the impact oracle's size
// limit is pinned on a model one edge past it.
func TestGoldenEnumeration(t *testing.T) {
	uniform := NewModel(Uniform, rng.New(841))
	pinned := NewModel(DAG, rng.New(842))
	pinned.P[0], pinned.P[1], pinned.P[2] = 0, 1, 1
	var out []goldenEnum
	for _, mc := range []struct {
		name string
		m    *core.ICM
	}{{"uniform", uniform}, {"dag_pinned", pinned}} {
		m := mc.m
		n := graph.NodeID(m.NumNodes())
		g := goldenEnum{Name: mc.name}
		for u := graph.NodeID(0); u < n; u++ {
			row := make([]float64, n)
			for v := range row {
				row[v] = m.EnumFlowProb([]graph.NodeID{u}, graph.NodeID(v))
			}
			g.Flow = append(g.Flow, row)
		}
		for v := graph.NodeID(0); v < n; v++ {
			g.Pair = append(g.Pair, m.EnumFlowProb([]graph.NodeID{0, n - 1}, v))
		}
		for _, q := range []struct {
			source, sink graph.NodeID
			conds        []core.FlowCondition
		}{
			{0, n - 1, []core.FlowCondition{{Source: 0, Sink: 1, Require: true}}},
			{0, 2, []core.FlowCondition{{Source: 0, Sink: 3, Require: false}}},
			{1, n - 1, []core.FlowCondition{{Source: 1, Sink: 2, Require: true}, {Source: 1, Sink: 4, Require: false}}},
			{2, 5, []core.FlowCondition{{Source: 0, Sink: 2, Require: true}, {Source: 3, Sink: 5, Require: true}, {Source: 0, Sink: 6, Require: false}}},
			{0, 1, []core.FlowCondition{{Source: n - 1, Sink: 0, Require: true}}},
			{0, 1, []core.FlowCondition{{Source: 0, Sink: 0, Require: false}}},
		} {
			p, err := m.EnumConditionalFlowProb([]graph.NodeID{q.source}, q.sink, q.conds)
			g.Conditional = append(g.Conditional, goldenEnumCond{
				Source: q.source, Sink: q.sink, Conds: q.conds, Prob: p, Err: errString(err),
			})
		}
		for _, sources := range [][]graph.NodeID{{0}, {1, 2}, {0, 0, 3}, {n - 1}, {2, 4, 6}} {
			d, err := m.EnumImpactDistribution(sources)
			g.Impact = append(g.Impact, goldenEnumImpact{Sources: sources, Dist: d, Err: errString(err)})
		}
		out = append(out, g)
	}
	over := graph.Random(rng.New(843), 8, core.MaxEnumEdges+1)
	overModel := core.MustNewICM(over, make([]float64, over.NumEdges()))
	d, err := overModel.EnumImpactDistribution([]graph.NodeID{0})
	out = append(out, goldenEnum{
		Name:   "over_limit",
		Impact: []goldenEnumImpact{{Sources: []graph.NodeID{0}, Dist: d, Err: errString(err)}},
	})
	Golden(t, "enumeration", out)
}

type goldenAttributed struct {
	Graph              string `json:"graph"`
	Objects            int    `json:"objects"`
	RecoveredOriginals int    `json:"recovered_originals"`
	SkippedEdges       int    `json:"skipped_edges"`
	// ActiveNodes and ActiveEdges total the evidence's objects; Digest
	// folds every object's sources, nodes and edges in order.
	ActiveNodes int    `json:"active_nodes"`
	ActiveEdges int    `json:"active_edges"`
	Digest      string `json:"digest"`
}

type goldenChains struct {
	Edges        int `json:"edges"`
	Observations int `json:"observations"`
	// EdgeDigest folds each inferred edge and its observation count.
	EdgeDigest string             `json:"edge_digest"`
	Attributed []goldenAttributed `json:"attributed"`
}

// goldenCorpusTweets is a fixed twitter.Generate corpus followed by
// hand-written noise: references outside the user range, an author
// outside it, a self-retweet link and a retweet whose original is
// missing.
func goldenCorpusTweets(t *testing.T) (*twitter.Dataset, []twitter.Tweet) {
	t.Helper()
	cfg := twitter.DefaultConfig()
	cfg.NumUsers, cfg.NumTweets, cfg.NumHashtags, cfg.NumURLs = 150, 500, 40, 20
	d, err := twitter.Generate(cfg, rng.New(851))
	if err != nil {
		t.Fatal(err)
	}
	tweets := append([]twitter.Tweet(nil), d.Tweets...)
	for i, tw := range []struct {
		author twitter.UserID
		text   string
	}{
		{3, "RT @user99999: stray reference"},
		{99999, "RT @user1: author out of range"},
		{-2, "negative author"},
		{5, "RT @user5: RT @user7: self link"},
		{4, "RT @user2: RT @user1: two hops"},
		{2, "RT @user8: lonely retweet"},
		{9, "RT @user8: lonely retweet"},
	} {
		tweets = append(tweets, twitter.Tweet{ID: twitter.TweetID(len(d.Tweets) + i), Author: tw.author, Time: len(d.Tweets) + i, Text: tw.text})
	}
	return d, tweets
}

// TestGoldenRetweetChains pins retweet-chain recovery (§IV-B): the
// topology InferGraph reads off the chains with its observation counts,
// and the attributed evidence ExtractAttributed builds over the
// generator's flow graph and over the inferred one.
func TestGoldenRetweetChains(t *testing.T) {
	d, tweets := goldenCorpusTweets(t)
	inferred := twitter.InferGraph(tweets, d.Config.NumUsers)
	out := goldenChains{Edges: inferred.Flow.NumEdges()}
	h := newFNVWords()
	for id, obs := range inferred.EdgeObservations {
		e := inferred.Flow.Edge(graph.EdgeID(id))
		h.add(uint64(e.From))
		h.add(uint64(e.To))
		h.add(uint64(obs))
		out.Observations += obs
	}
	out.EdgeDigest = h.String()
	for _, gc := range []struct {
		name string
		g    *graph.DiGraph
	}{{"flow", d.Flow}, {"inferred", inferred.Flow}} {
		res := twitter.ExtractAttributed(gc.g, tweets)
		a := goldenAttributed{
			Graph: gc.name, Objects: res.Objects,
			RecoveredOriginals: res.RecoveredOriginals, SkippedEdges: res.SkippedEdges,
		}
		h := newFNVWords()
		for _, obj := range res.Evidence.Objects {
			a.ActiveNodes += len(obj.ActiveNodes)
			a.ActiveEdges += len(obj.ActiveEdges)
			for _, part := range [][]int32{obj.Sources, obj.ActiveNodes, obj.ActiveEdges} {
				h.add(uint64(len(part)))
				for _, v := range part {
					h.add(uint64(v))
				}
			}
		}
		a.Digest = h.String()
		out.Attributed = append(out.Attributed, a)
	}
	Golden(t, "retweet_chains", out)
}

type goldenTraining struct {
	Tweets             string `json:"tweets"`
	Censored           bool   `json:"censored"`
	Nodes              int    `json:"nodes"`
	Edges              int    `json:"edges"`
	Objects            int    `json:"objects"`
	RecoveredOriginals int    `json:"recovered_originals"`
	SkippedEdges       int    `json:"skipped_edges"`
	// BetaDigest folds each edge's endpoints and the bits of its Beta
	// parameters, in EdgeID order.
	BetaDigest string `json:"beta_digest"`
}

// TestGoldenAttributedTraining pins the corpus loader (§II-A, §IV-B),
// Dataset.TrainAttributed: the betaICM trained on every tweet of the
// noisy golden corpus and on its 70% train split, under the censored
// and the literal rule, with the extraction's counts.
func TestGoldenAttributedTraining(t *testing.T) {
	d, tweets := goldenCorpusTweets(t)
	train, _ := d.SplitTweets(0.7)
	var out []goldenTraining
	for _, tc := range []struct {
		name   string
		tweets []twitter.Tweet
	}{{"all", tweets}, {"train", train}} {
		for _, censored := range []bool{true, false} {
			bm, res, err := d.TrainAttributed(tc.tweets, censored)
			if err != nil {
				t.Fatal(err)
			}
			h := newFNVWords()
			for id, b := range bm.B {
				e := bm.G.Edge(graph.EdgeID(id))
				h.add(uint64(e.From))
				h.add(uint64(e.To))
				h.add(math.Float64bits(b.Alpha))
				h.add(math.Float64bits(b.Beta))
			}
			out = append(out, goldenTraining{
				Tweets: tc.name, Censored: censored, Nodes: bm.G.NumNodes(), Edges: bm.G.NumEdges(),
				Objects: res.Objects, RecoveredOriginals: res.RecoveredOriginals, SkippedEdges: res.SkippedEdges,
				BetaDigest: h.String(),
			})
		}
	}
	Golden(t, "attributed_training", out)
}

type goldenEM struct {
	Name       string    `json:"name"`
	Init       []float64 `json:"init"`
	MaxIter    int       `json:"max_iter"`
	Estimates  []float64 `json:"estimates"`
	Iterations int       `json:"iterations"`
}

// goldenInits returns an all-0.5 init and count uniform draws in
// (0.01, 0.99) for n parents.
func goldenInits(n, count int, seed uint64) [][]float64 {
	half := make([]float64, n)
	for j := range half {
		half[j] = 0.5
	}
	out := [][]float64{half}
	r := rng.New(seed)
	for i := 0; i < count; i++ {
		init := make([]float64, n)
		for j := range init {
			init[j] = r.Uniform(0.01, 0.99)
		}
		out = append(out, init)
	}
	return out
}

// TestGoldenSaitoEM pins both EM estimators: SaitoRelaxed on the
// paper's Table I and Table II summaries, and SaitoOriginal on the
// hashtag cascades of a fixed corpus (their activation rounds as
// traces) for the four busiest sinks. Each runs to convergence and
// under a three-iteration budget.
func TestGoldenSaitoEM(t *testing.T) {
	var out []goldenEM
	for _, sc := range []struct {
		name string
		s    *unattrib.Summary
	}{{"table_i", unattrib.TableI()}, {"table_ii", unattrib.TableII()}} {
		for i, init := range goldenInits(len(sc.s.Parents), 3, 861) {
			for _, maxIter := range []int{200, 3} {
				opts := unattrib.SaitoOptions{MaxIter: maxIter, Tol: 1e-9}
				k, iter, err := unattrib.SaitoRelaxed(sc.s, init, opts)
				if err != nil {
					t.Fatalf("%s init %d: %v", sc.name, i, err)
				}
				out = append(out, goldenEM{Name: sc.name, Init: init, MaxIter: maxIter, Estimates: k, Iterations: iter})
			}
		}
	}
	d, _ := goldenCorpusTweets(t)
	traces := make([]unattrib.Trace, len(d.Hashtags))
	for i, obj := range d.Hashtags {
		traces[i] = obj.ActiveTime
	}
	sinks := d.RealUsers()
	sort.SliceStable(sinks, func(i, j int) bool { return d.Flow.InDegree(sinks[i]) > d.Flow.InDegree(sinks[j]) })
	for _, sink := range sinks[:4] {
		parents := d.Flow.Parents(sink)
		for i, init := range goldenInits(len(parents), 1, 862+uint64(sink)) {
			for _, maxIter := range []int{200, 3} {
				opts := unattrib.SaitoOptions{MaxIter: maxIter, Tol: 1e-9}
				k, iter, err := unattrib.SaitoOriginal(sink, parents, traces, init, opts)
				if err != nil {
					t.Fatalf("sink %d init %d: %v", sink, i, err)
				}
				out = append(out, goldenEM{Name: twitter.FormatUser(sink), Init: init, MaxIter: maxIter, Estimates: k, Iterations: iter})
			}
		}
	}
	Golden(t, "saito_em", out)
}

type goldenLearner struct {
	Name string `json:"name"`
	// Rows is the retained-sample count and RowsDigest folds the bits of
	// every retained row, in draw order; a ctic row is its k half then
	// its r half. Mean and StdDev follow the same order.
	Rows           int       `json:"rows"`
	RowsDigest     string    `json:"rows_digest"`
	Mean           []float64 `json:"mean"`
	StdDev         []float64 `json:"std_dev"`
	AcceptanceRate float64   `json:"acceptance_rate"`
}

// learnerGolden records one learner run: rows[i] is the i-th retained
// row, split into the halves the learner returns it in.
func learnerGolden(name string, rows [][][]float64, mean, sd []float64, acc float64) goldenLearner {
	h := newFNVWords()
	for _, row := range rows {
		for _, half := range row {
			for _, v := range half {
				h.add(math.Float64bits(v))
			}
		}
	}
	return goldenLearner{Name: name, Rows: len(rows), RowsDigest: h.String(), Mean: mean, StdDev: sd, AcceptanceRate: acc}
}

// TestGoldenLearners pins both edge learners bit for bit: JointBayes and
// JointBayesWithPrior (base Beta(2,5)) on the paper's Table I and Table
// II summaries, and ctic.Learn on the learner corpus's episodes under
// its short schedule and DefaultLearnOptions.
func TestGoldenLearners(t *testing.T) {
	var out []goldenLearner
	for _, sc := range []struct {
		name string
		s    *unattrib.Summary
	}{{"table_i", unattrib.TableI()}, {"table_ii", unattrib.TableII()}} {
		for _, prior := range []struct {
			name string
			base dist.Beta
		}{{"uniform", dist.Uniform()}, {"beta_2_5", dist.NewBeta(2, 5)}} {
			post, err := unattrib.JointBayesWithPrior(sc.s, prior.base, goldenBayesOptions, rng.New(313))
			if err != nil {
				t.Fatalf("%s %s: %v", sc.name, prior.name, err)
			}
			rows := make([][][]float64, len(post.Samples))
			for i, row := range post.Samples {
				rows[i] = [][]float64{row}
			}
			out = append(out, learnerGolden("joint_bayes/"+sc.name+"/"+prior.name, rows, post.Mean, post.StdDev, post.AcceptanceRate))
		}
	}
	eps := goldenCTICEpisodes(t)
	for _, sc := range []struct {
		name string
		opts ctic.LearnOptions
	}{{"golden_options", goldenCTICOptions()}, {"default_options", ctic.DefaultLearnOptions()}} {
		post, err := ctic.Learn(2, []graph.NodeID{0, 1}, eps, sc.opts, rng.New(11))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		rows := make([][][]float64, len(post.KSamples))
		for i := range rows {
			rows[i] = [][]float64{post.KSamples[i], post.RSamples[i]}
		}
		mean := append(append([]float64(nil), post.KMean...), post.RMean...)
		sd := append(append([]float64(nil), post.KStd...), post.RStd...)
		out = append(out, learnerGolden("ctic/"+sc.name, rows, mean, sd, post.AcceptanceRate))
	}
	Golden(t, "learners", out)
}
