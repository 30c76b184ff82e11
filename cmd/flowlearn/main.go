// Command flowlearn runs the unattributed learning pipeline (§V of the
// paper) on a corpus written by flowgen: it reduces the tweets to
// activation traces for hashtags or URLs, builds per-sink evidence
// summaries, and learns the incident edge probabilities of one sink with
// all four estimators — joint Bayes (with posterior correlations),
// Goyal's credit rule, relaxed Saito EM, and the filtered baseline —
// comparing against the corpus's hidden ground truth.
//
//	flowlearn -data corpus.json -kind url            # busiest sink
//	flowlearn -data corpus.json -kind hashtag -sink 42
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"infoflow/internal/graph"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "flowlearn: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowlearn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	data := fs.String("data", "", "corpus JSON written by flowgen (required)")
	kindArg := fs.String("kind", "url", "object kind to learn from: url or hashtag")
	sinkArg := fs.Int("sink", -1, "sink user (-1 selects the most-observed sink)")
	seed := fs.Uint64("seed", 1, "MCMC seed")
	samples := fs.Int("samples", 2000, "posterior samples")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		fs.Usage()
		return fmt.Errorf("-data is required")
	}
	f, err := os.Open(*data)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := twitter.Read(f)
	if err != nil {
		return err
	}
	var kind twitter.MentionKind
	switch *kindArg {
	case "url":
		kind = twitter.MentionURLs
	case "hashtag":
		kind = twitter.MentionHashtags
	default:
		return fmt.Errorf("unknown kind %q (want url or hashtag)", *kindArg)
	}
	traces := twitter.ExtractTraces(d.Tweets, kind)
	if len(traces) == 0 {
		return fmt.Errorf("no %s traces in the corpus", *kindArg)
	}
	// Order the traces by label: map iteration order is randomized, and
	// the observation order feeds the learners' accumulations.
	labels := make([]string, 0, len(traces))
	for label := range traces {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	traceList := make([]unattrib.Trace, 0, len(traces))
	for _, label := range labels {
		traceList = append(traceList, traces[label])
	}
	sums, err := unattrib.BuildSummaries(d.Flow, traceList)
	if err != nil {
		return err
	}
	var s *unattrib.Summary
	if *sinkArg >= 0 {
		s = sums[graph.NodeID(*sinkArg)]
		if s == nil {
			return fmt.Errorf("sink %d has no incident edges", *sinkArg)
		}
	} else {
		for _, cand := range sums {
			if cand.Sink == d.Omnipotent {
				continue
			}
			if s == nil || cand.NumObservations() > s.NumObservations() {
				s = cand
			}
		}
		if s == nil {
			return fmt.Errorf("no summaries built")
		}
	}
	fmt.Fprintf(stdout, "sink user %d: %d parents (%d dropped), %d observations, %d characteristics over %d traces\n",
		s.Sink, len(s.Parents), s.DroppedParents, s.NumObservations(), len(s.Rows), len(traceList))

	r := rng.New(*seed)
	opts := unattrib.DefaultBayesOptions()
	opts.Samples = *samples
	post, err := unattrib.JointBayes(s, opts, r)
	if err != nil {
		return err
	}
	goyal := unattrib.Goyal(s)
	init := make([]float64, len(s.Parents))
	for i := range init {
		init[i] = 0.5
	}
	saito, iters, err := unattrib.SaitoRelaxed(s, init, unattrib.DefaultSaitoOptions())
	if err != nil {
		return err
	}
	filtered := unattrib.FilteredMeans(s)

	fmt.Fprintf(stdout, "\n%8s %8s %14s %8s %8s %8s\n", "parent", "truth", "bayes(+/-sd)", "goyal", "saito", "filtered")
	for j, parent := range s.Parents {
		truth := float64(-1)
		if id, ok := d.Flow.EdgeID(parent, s.Sink); ok {
			truth = d.TruthICM.P[id]
		}
		fmt.Fprintf(stdout, "%8d %8.3f %7.3f+/-%.3f %8.3f %8.3f %8.3f\n",
			parent, truth, post.Mean[j], post.StdDev[j], goyal[j], saito[j], filtered[j])
	}
	fmt.Fprintf(stdout, "(EM converged in %d iterations; MCMC acceptance %.2f)\n", iters, post.AcceptanceRate)

	// Strongest posterior correlations: the joint structure point
	// estimators cannot express.
	corr := post.Correlation()
	type pair struct {
		i, j int
		c    float64
	}
	var best pair
	for i := range corr {
		for j := i + 1; j < len(corr); j++ {
			if math.Abs(corr[i][j]) > math.Abs(best.c) {
				best = pair{i, j, corr[i][j]}
			}
		}
	}
	if len(s.Parents) > 1 {
		fmt.Fprintf(stdout, "strongest posterior correlation: parents %d and %d at %+.3f\n",
			s.Parents[best.i], s.Parents[best.j], best.c)
	}
	return nil
}
