package twitter

import (
	"sort"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/unattrib"
)

// AttributedResult is the output of retweet-chain extraction: attributed
// evidence over a flow graph, plus bookkeeping mirroring the paper's
// report that preprocessing *grew* the dataset by recovering originals
// (10M -> 10.8M tweets).
type AttributedResult struct {
	Evidence core.AttributedEvidence
	// RecoveredOriginals counts cascades whose original tweet was absent
	// from the corpus and was reconstructed from retweet ancestry.
	RecoveredOriginals int
	// SkippedEdges counts parent->child attributions with no edge in the
	// flow graph (noise, or an incomplete graph), which are dropped.
	SkippedEdges int
	// Objects is the number of distinct cascades found.
	Objects int
}

// cascadeKey identifies one content cascade: its original author and the
// innermost message body.
type cascadeKey struct {
	origin UserID
	body   string
}

// ExtractAttributed rebuilds attributed evidence from raw tweets by
// message syntax, per §IV-B: retweets are identified by their "RT @user:"
// prefixes; searching the ancestry chains links earlier (re)tweets to
// later ones and recovers missing originals. An object's active nodes are
// its original author plus everyone on any recovered chain; its active
// edges are the adjacent chain links that exist in the flow graph.
func ExtractAttributed(g *graph.DiGraph, tweets []Tweet) *AttributedResult {
	res := &AttributedResult{}
	type objectAcc struct {
		origin      UserID
		seenOrig    bool
		activeNodes map[UserID]bool
		activeEdges map[graph.EdgeID]bool
	}
	objects := make(map[cascadeKey]*objectAcc)
	inRange := func(u UserID) bool { return u >= 0 && int(u) < g.NumNodes() }
	get := func(key cascadeKey) *objectAcc {
		acc, ok := objects[key]
		if !ok {
			acc = &objectAcc{
				origin:      key.origin,
				activeNodes: map[UserID]bool{key.origin: true},
				activeEdges: map[graph.EdgeID]bool{},
			}
			objects[key] = acc
		}
		return acc
	}
	var keys []cascadeKey // insertion order for determinism
	for _, t := range tweets {
		p := ParseTweet(t.Text)
		origin := p.Origin(t.Author)
		if !inRange(origin) || !inRange(t.Author) {
			continue
		}
		key := cascadeKey{origin, p.Body}
		if _, ok := objects[key]; !ok {
			keys = append(keys, key)
		}
		acc := get(key)
		if !p.IsRetweet() {
			acc.seenOrig = true
			continue
		}
		chain := p.Chain(t.Author, g.NumNodes()) // nil through an unknown user
		for i := 0; i+1 < len(chain); i++ {
			from, to := chain[i], chain[i+1]
			if from == to {
				continue
			}
			acc.activeNodes[from] = true
			acc.activeNodes[to] = true
			if id, ok := g.EdgeID(from, to); ok {
				acc.activeEdges[id] = true
			} else {
				res.SkippedEdges++
			}
		}
	}
	for _, key := range keys {
		acc := objects[key]
		if !acc.seenOrig {
			if len(acc.activeNodes) <= 1 {
				continue // a dangling original-less object with no chain
			}
			res.RecoveredOriginals++
		}
		obj := core.AttributedObject{Sources: []UserID{acc.origin}}
		for u := range acc.activeNodes {
			obj.ActiveNodes = append(obj.ActiveNodes, u)
		}
		sort.Slice(obj.ActiveNodes, func(i, j int) bool { return obj.ActiveNodes[i] < obj.ActiveNodes[j] })
		for e := range acc.activeEdges {
			obj.ActiveEdges = append(obj.ActiveEdges, e)
		}
		sort.Slice(obj.ActiveEdges, func(i, j int) bool { return obj.ActiveEdges[i] < obj.ActiveEdges[j] })
		res.Evidence.Add(obj)
		res.Objects++
	}
	return res
}

// TrainAttributed is the one corpus loader: it trains a betaICM over
// the real-user subgraph of d's flow graph (node ids unchanged) on the
// attributed evidence ExtractAttributed recovers from tweets, and
// returns it with the extraction's bookkeeping. censored selects
// core.BetaICM.TrainAttributedCensored, the rule for chain-recovered
// evidence, over the paper's literal TrainAttributed.
func (d *Dataset) TrainAttributed(tweets []Tweet, censored bool) (*core.BetaICM, *AttributedResult, error) {
	real, _, _ := d.Flow.Subgraph(d.RealUsers())
	res := ExtractAttributed(real, tweets)
	bm := core.NewBetaICM(real)
	train := bm.TrainAttributed
	if censored {
		train = bm.TrainAttributedCensored
	}
	if err := train(&res.Evidence); err != nil {
		return nil, nil, err
	}
	return bm, res, nil
}

// MentionKind selects which in-text objects ExtractTraces collects.
type MentionKind int

// The mention kinds.
const (
	MentionHashtags MentionKind = iota
	MentionURLs
)

// ExtractTraces reduces the corpus to unattributed activation traces:
// for each distinct hashtag (or URL), the first time each user mentioned
// it. This is exactly the evidence shape of §V — endpoints and times, no
// paths. The map key is the hashtag text or URL.
func ExtractTraces(tweets []Tweet, kind MentionKind) map[string]unattrib.Trace {
	out := make(map[string]unattrib.Trace)
	for _, t := range tweets {
		p := ParseTweet(t.Text)
		var labels []string
		if kind == MentionHashtags {
			labels = p.Hashtags
		} else {
			labels = p.URLs
		}
		for _, label := range labels {
			tr, ok := out[label]
			if !ok {
				tr = unattrib.Trace{}
				out[label] = tr
			}
			if prev, ok := tr[t.Author]; !ok || t.Time < prev {
				tr[t.Author] = t.Time
			}
		}
	}
	return out
}

// WithOmnipotent returns a copy of the trace with the omnipotent user
// active before everything else (time one less than the trace minimum),
// realising the paper's "omnipotent user [that] all users follow [and
// that] is the true originator of all tweets".
func WithOmnipotent(tr unattrib.Trace, omnipotent UserID) unattrib.Trace {
	minT := 0
	first := true
	for _, t := range tr {
		if first || t < minT {
			minT = t
			first = false
		}
	}
	out := unattrib.Trace{omnipotent: minT - 1}
	for u, t := range tr {
		out[u] = t
	}
	return out
}
