package experiments

import (
	"fmt"
	"sort"

	"infoflow/internal/core"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

// tagObject is one hashtag/URL object with its observable trace and
// test outcome set.
type tagObject struct {
	label string
	trace unattrib.Trace
}

// TagFlowLab is the shared pipeline of the §V-D experiments (Figs 8-10):
// a corpus, per-kind activation traces split into train/test, and — per
// (source, radius) — edge probabilities learned by the joint-Bayes
// method (with uncertainty) and by Goyal's credit rule on the radius
// sub-graph including the omnipotent user.
type TagFlowLab struct {
	Dataset *twitter.Dataset
	Kind    twitter.MentionKind
	Train   []tagObject
	Test    []tagObject
	// Source is the user originating the most test objects (the paper's
	// "interesting user" originator).
	Source twitter.UserID
}

// NewTagFlowLab generates the corpus (unless given one) and splits the
// traces.
func NewTagFlowLab(d *twitter.Dataset, kind twitter.MentionKind, trainFrac float64) (*TagFlowLab, error) {
	traces := twitter.ExtractTraces(d.Tweets, kind)
	if len(traces) == 0 {
		return nil, fmt.Errorf("tagflow: no traces of the requested kind")
	}
	labels := make([]string, 0, len(traces))
	for label := range traces {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	cut := int(float64(len(labels)) * trainFrac)
	lab := &TagFlowLab{Dataset: d, Kind: kind}
	for i, label := range labels {
		obj := tagObject{label: label, trace: traces[label]}
		if i < cut {
			lab.Train = append(lab.Train, obj)
		} else {
			lab.Test = append(lab.Test, obj)
		}
	}
	// Originator of a trace = its earliest mentioner; the source is the
	// user originating the most test objects.
	counts := map[twitter.UserID]int{}
	for _, obj := range lab.Test {
		counts[originator(obj.trace)]++
	}
	best, bestN := twitter.UserID(-1), -1
	for u, n := range counts {
		if n > bestN || (n == bestN && u < best) {
			best, bestN = u, n
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("tagflow: no test objects")
	}
	lab.Source = best
	return lab, nil
}

func originator(tr unattrib.Trace) twitter.UserID {
	best, bestT := twitter.UserID(-1), 0
	first := true
	for u, t := range tr {
		if first || t < bestT || (t == bestT && u < best) {
			best, bestT = u, t
			first = false
		}
	}
	return best
}

// TagFlowModel is the learned sub-graph model for one (source, radius):
// the sub-graph (with node mappings), per-edge posterior means and
// standard deviations from joint Bayes, and Goyal's point estimates.
type TagFlowModel struct {
	Sub          *graph.DiGraph
	ToOld, ToNew []graph.NodeID
	SourceSub    graph.NodeID
	OursMean     []float64 // by sub EdgeID
	OursStd      []float64
	Goyal        []float64
}

// Learn builds the model for the lab's source at the given radius: the
// directed radius-neighbourhood of the source plus the omnipotent user,
// with summaries built from train traces (omnipotent active first in
// every trace) and edges learned per sink by both methods. Edges with no
// evidence get the empirical-Bayes fallback mean for ours and 0 (no
// credit) for Goyal.
func (l *TagFlowLab) Learn(radius int, bayes unattrib.BayesOptions, r *rng.RNG) (*TagFlowModel, error) {
	return l.LearnWithOptions(radius, bayes, true, r)
}

// LearnWithOptions is Learn with the omnipotent outside-world user made
// optional: with includeOmnipotent=false, traces are used as observed
// (no always-active external parent), so activations with no visible
// cause attribute entirely to real edges — the ablation the paper
// reports as increasing flow probabilities marginally.
func (l *TagFlowLab) LearnWithOptions(radius int, bayes unattrib.BayesOptions, includeOmnipotent bool, r *rng.RNG) (*TagFlowModel, error) {
	flow := l.Dataset.Flow
	nodes := flow.NodesWithin(l.Source, radius)
	hasOmni := false
	for _, v := range nodes {
		if v == l.Dataset.Omnipotent {
			hasOmni = true
		}
	}
	if !hasOmni {
		nodes = append(nodes, l.Dataset.Omnipotent)
	}
	sub, toOld, toNew := flow.Subgraph(nodes)
	m := &TagFlowModel{
		Sub: sub, ToOld: toOld, ToNew: toNew,
		SourceSub: toNew[l.Source],
		OursMean:  make([]float64, sub.NumEdges()),
		OursStd:   make([]float64, sub.NumEdges()),
		Goyal:     make([]float64, sub.NumEdges()),
	}
	// observed marks edges whose parent appeared in at least one
	// characteristic for its sink. Unobserved edges carry no information;
	// leaving them at the uniform-prior mean 0.5 would let them percolate
	// (0.5 x typical out-degree >> 1) and inflate every flow estimate, so
	// they instead receive the empirical-Bayes fallback: the average
	// learned mean over observed edges (see DESIGN.md).
	observed := make([]bool, sub.NumEdges())
	remapped := make([]unattrib.Trace, 0, len(l.Train))
	for _, obj := range l.Train {
		tr := obj.trace
		if includeOmnipotent {
			tr = twitter.WithOmnipotent(tr, l.Dataset.Omnipotent)
		}
		rt := remapTrace(tr, toNew)
		if len(rt) > 0 {
			remapped = append(remapped, rt)
		}
	}
	sums, err := unattrib.BuildSummaries(sub, remapped)
	if err != nil {
		return nil, err
	}
	sinks := make([]graph.NodeID, 0, len(sums))
	for sink := range sums {
		sinks = append(sinks, sink)
	}
	sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })
	// Informed base prior (the paper's "prior ... inferred from the
	// data"): a beta with small equivalent sample size centred on the
	// pooled per-exposure activation rate across all sinks. Without it,
	// edges with one or two ambiguous observations sit near the uniform
	// prior's mean 0.5 and jointly inflate every flow estimate.
	base := pooledPrior(sums)
	for _, sink := range sinks {
		s := sums[sink]
		if len(s.Rows) == 0 {
			continue
		}
		post, err := unattrib.JointBayesWithPrior(s, base, bayes, r)
		if err != nil {
			return nil, fmt.Errorf("tagflow: sink %d: %w", sink, err)
		}
		goyal := unattrib.Goyal(s)
		parentSeen := make([]bool, len(s.Parents))
		for _, row := range s.Rows {
			for j := range s.Parents {
				if row.Set.Has(j) {
					parentSeen[j] = true
				}
			}
		}
		for j, parent := range s.Parents {
			id, ok := sub.EdgeID(parent, sink)
			if !ok {
				return nil, fmt.Errorf("tagflow: missing edge %d->%d", parent, sink)
			}
			if !parentSeen[j] {
				continue
			}
			observed[id] = true
			m.OursMean[id] = post.Mean[j]
			m.OursStd[id] = post.StdDev[j]
			m.Goyal[id] = goyal[j]
		}
	}
	// Empirical-Bayes fallback for unobserved edges.
	meanSum, stdSum, n := 0.0, 0.0, 0
	for id, ok := range observed {
		if ok {
			meanSum += m.OursMean[id]
			stdSum += m.OursStd[id]
			n++
		}
	}
	fallbackMean, fallbackStd := 0.5, 0.2887 // uniform prior if nothing observed
	if n > 0 {
		fallbackMean = meanSum / float64(n)
		fallbackStd = stdSum / float64(n)
	}
	for id, ok := range observed {
		if !ok {
			m.OursMean[id] = fallbackMean
			m.OursStd[id] = fallbackStd
			m.Goyal[id] = 0 // Goyal's rule assigns no credit without evidence
		}
	}
	return m, nil
}

// pooledPrior fits a beta prior (equivalent sample size 6) to the pooled
// activation rate: total leak credit per parent exposure, Goyal-style,
// across every sink's summary.
func pooledPrior(sums map[graph.NodeID]*unattrib.Summary) dist.Beta {
	// Accumulate in sorted sink order: float addition is not
	// associative, and the map's randomized iteration order would make
	// the pooled prior differ bit-for-bit between runs.
	ids := make([]graph.NodeID, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	exposure, credit := 0.0, 0.0
	for _, id := range ids {
		for _, row := range sums[id].Rows {
			// Each observation exposes |J| parent edges and carries at
			// most one unit of leak credit split among them.
			exposure += float64(row.Count * row.Set.Size())
			credit += float64(row.Leaks)
		}
	}
	//flowlint:ignore floatcmp -- exposure is a sum of non-negative counts; exact zero means no evidence at all
	if exposure == 0 {
		return dist.Uniform()
	}
	rate := credit / exposure
	if rate <= 0 {
		rate = 1 / (exposure + 1)
	}
	if rate >= 1 {
		rate = 1 - 1e-6
	}
	const ess = 6
	return dist.NewBeta(rate*ess+1e-3, (1-rate)*ess+1e-3)
}

// CommunityFlow estimates, by MH on an ICM with the given edge
// probabilities, the source-to-community flow probabilities over the
// sub-graph. It rides the batched lane engine; a one-source batch is
// bit-identical to CommunityFlowProbs on the same RNG.
func (m *TagFlowModel) CommunityFlow(p []float64, opts mh.Options, r *rng.RNG) ([]float64, error) {
	probs, err := m.CommunityFlows([]graph.NodeID{m.SourceSub}, p, opts, r)
	if err != nil {
		return nil, err
	}
	return probs[0], nil
}

// CommunityFlows is the multi-source form: one chain on the sub-graph
// ICM answers every listed source's community flows. Sources are
// sub-graph node IDs; the result is indexed [source][subNode].
func (m *TagFlowModel) CommunityFlows(sources []graph.NodeID, p []float64, opts mh.Options, r *rng.RNG) ([][]float64, error) {
	icm, err := core.NewICM(m.Sub, p)
	if err != nil {
		return nil, err
	}
	return mh.CommunityFlowProbsBatch(icm, sources, nil, opts, r)
}

// TestPairsFromSource yields, for each test object originated by the
// lab's source, the outcome per sub-graph user, calling visit(subNode,
// active). The omnipotent user and the source itself are skipped.
func (l *TagFlowLab) TestPairsFromSource(m *TagFlowModel, visit func(subNode graph.NodeID, active bool)) int {
	objects := 0
	for _, obj := range l.Test {
		if originator(obj.trace) != l.Source {
			continue
		}
		objects++
		for i, old := range m.ToOld {
			subNode := graph.NodeID(i)
			if old == l.Dataset.Omnipotent || old == l.Source {
				continue
			}
			_, active := obj.trace[old]
			visit(subNode, active)
		}
	}
	return objects
}
