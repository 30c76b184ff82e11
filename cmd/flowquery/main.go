// Command flowquery loads a corpus written by flowgen, trains a betaICM
// on its recovered retweet chains, and answers flow queries against the
// trained model:
//
//	flowquery -data corpus.json -source 3 -sink 42          # end-to-end flow
//	flowquery -data corpus.json -source 3 -community -top 10
//	flowquery -data corpus.json -source 3 -sink 42 -cond "3>7=1,3>9=0"
//	flowquery -data corpus.json -source 3 -impact
//	flowquery -data corpus.json -impact -sources 3,7,12
//	flowquery -data corpus.json -source 3 -sink 42 -nested 50
//	flowquery -data corpus.json -maximize -k 5
//	flowquery -data corpus.json -maximize -k 3 -sources 1,4,9
//
// Conditions are comma-separated "u>v=1" (flow known present) or
// "u>v=0" (known absent). They run sorted with duplicates dropped, as
// flowserve runs them; "u>u=0" and a flow both required and forbidden
// are errors.
//
// -impact prints the cascade-size distribution of the source set: the
// exact analytic law (internal/sizedist) when the model admits one and
// the query is unconditioned, otherwise the sampled MH estimate — the
// header labels which estimator answered.
//
// -maximize selects the -k seed users whose cascades cover the most of
// the network (or of the -sources community, when given) by RIS-sketch
// lazy-greedy maximum coverage — the deterministic sketch backend the
// flowserve /maximize endpoint serves.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"infoflow/internal/core"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/serve"
	"infoflow/internal/sizedist"
	"infoflow/internal/twitter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "flowquery: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	data := fs.String("data", "", "corpus JSON written by flowgen (required)")
	seed := fs.Uint64("seed", 1, "sampler seed")
	source := fs.Int("source", -1, "source user (required)")
	sink := fs.Int("sink", -1, "sink user (for end-to-end queries)")
	condsArg := fs.String("cond", "", "flow conditions, e.g. \"3>7=1,3>9=0\"")
	community := fs.Bool("community", false, "report source-to-community flow")
	top := fs.Int("top", 10, "community nodes to print")
	impact := fs.Bool("impact", false, "report the impact (cascade-size) distribution")
	maximize := fs.Bool("maximize", false, "select the k most influential seed users (RIS sketch)")
	budget := fs.Int("k", 5, "seed budget for -maximize")
	sourcesArg := fs.String("sources", "", "comma-separated source set for -impact, or community targets for -maximize (overrides -source)")
	nested := fs.Int("nested", 0, "if > 0, sample this many models for an uncertainty estimate")
	samples := fs.Int("samples", 2000, "MH output samples")
	censored := fs.Bool("censored", true, "use censored attributed training (recommended for chain-recovered evidence)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *data == "" || (*source < 0 && !(*impact && *sourcesArg != "") && !*maximize) {
		fs.Usage()
		return fmt.Errorf("-data and -source (or -impact -sources, or -maximize) are required")
	}
	if *top < 1 {
		return fmt.Errorf("-top must be a positive integer, got %d", *top)
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
	real, _, _ := d.Flow.Subgraph(d.RealUsers())
	res := twitter.ExtractAttributed(real, d.Tweets)
	bm := core.NewBetaICM(real)
	train := bm.TrainAttributed
	if *censored {
		train = bm.TrainAttributedCensored
	}
	if err := train(&res.Evidence); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained on %d objects (%d originals recovered, %d edges skipped)\n",
		res.Objects, res.RecoveredOriginals, res.SkippedEdges)

	conds, err := serve.ParseConds(*condsArg)
	if err != nil {
		return err
	}
	r := rng.New(*seed)
	m := bm.ExpectedICM()
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = *samples
	// Range-check as ints, before any cast to the int32 graph.NodeID.
	n := real.NumNodes()
	if *source >= n {
		return fmt.Errorf("source %d out of range [0, %d)", *source, n)
	}
	if *sink >= n {
		return fmt.Errorf("sink %d out of range [0, %d)", *sink, n)
	}
	if err := serve.CheckConds(conds, n); err != nil {
		return err
	}
	// Run the conditions in flowserve's canonical order, so both tools
	// answer a list alike whatever order it is given in.
	if conds, _, err = serve.CanonicalConds(conds); err != nil {
		return err
	}
	src := graph.NodeID(*source)

	switch {
	case *maximize:
		var targets []graph.NodeID
		if *sourcesArg != "" {
			if targets, err = serve.ParseSources(*sourcesArg); err != nil {
				return err
			}
			for _, v := range targets {
				if int(v) >= real.NumNodes() {
					return fmt.Errorf("target %d out of range", v)
				}
			}
		}
		return printMaximize(stdout, m, *budget, targets, conds, r)
	case *impact:
		set := []graph.NodeID{src}
		if *sourcesArg != "" {
			if set, err = serve.ParseSources(*sourcesArg); err != nil {
				return err
			}
			if len(set) == 0 {
				return fmt.Errorf("-sources is empty")
			}
			for _, v := range set {
				if int(v) >= real.NumNodes() {
					return fmt.Errorf("source %d out of range", v)
				}
			}
		}
		return printImpact(stdout, m, set, conds, opts, r)
	case *community:
		flows, err := mh.CommunityFlowProbs(m, src, conds, opts, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "top community flows from user %d:\n", src)
		for _, v := range serve.TopCommunity(flows, src, *top) {
			fmt.Fprintf(stdout, "  -> %6d  %.4f\n", v, flows[v])
		}
	case *nested > 0:
		if *sink < 0 {
			return fmt.Errorf("-sink required for nested query")
		}
		ps, err := mh.NestedFlowProb(bm, src, graph.NodeID(*sink), conds, *nested, opts, r)
		if err != nil {
			return err
		}
		s := dist.Summarize(ps)
		fit := dist.FitBetaToSamples(ps)
		fmt.Fprintf(stdout, "flow %d ~> %d: mean %.4f sd %.4f over %d sampled models (fit %v)\n",
			src, *sink, s.Mean, s.StdDev(), s.N, fit)
	default:
		if *sink < 0 {
			return fmt.Errorf("-sink required (or use -community / -impact)")
		}
		p, err := mh.FlowProb(m, src, graph.NodeID(*sink), conds, opts, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Pr[%d ~> %d", src, *sink)
		if len(conds) > 0 {
			fmt.Fprintf(stdout, " | %d conditions", len(conds))
		}
		fmt.Fprintf(stdout, "] = %.4f\n", p)
	}
	return nil
}

// printMaximize reports the k-seed RIS-sketch selection: seeds in
// selection order with their marginal spread gains over the target
// universe (the whole network, or the community given via -sources).
func printMaximize(stdout io.Writer, m *core.ICM, k int, targets []graph.NodeID, conds []core.FlowCondition, r *rng.RNG) error {
	if k <= 0 || k > m.NumNodes() {
		return fmt.Errorf("-k %d out of range [1, %d]", k, m.NumNodes())
	}
	opts := influence.DefaultSketchOptions(m.NumEdges())
	res, pool, err := influence.Maximize(m, k, targets, conds, opts, r)
	if err != nil {
		return err
	}
	scope := "network"
	if len(targets) > 0 {
		scope = fmt.Sprintf("community of %d users", pool.Universe)
	}
	fmt.Fprintf(stdout, "top-%d influence seeds over the %s (RIS sketch, %d RR sets):\n",
		len(res.Seeds), scope, pool.NumSets)
	for i, v := range res.Seeds {
		fmt.Fprintf(stdout, "  %2d. user %6d  marginal gain %8.2f\n", i+1, v, res.MarginalGains[i])
	}
	fmt.Fprintf(stdout, "estimated spread of the set: %.2f users\n", res.SpreadEstimate)
	return nil
}

// printImpact reports the cascade-size distribution of a source set:
// the exact analytic law when internal/sizedist can produce one (the
// query must be unconditioned — the analytic engine computes the
// unconditional law), otherwise the sampled MH estimate. The header
// labels which estimator answered.
func printImpact(stdout io.Writer, m *core.ICM, set []graph.NodeID, conds []core.FlowCondition, opts mh.Options, r *rng.RNG) error {
	users := make([]string, len(set))
	for i, v := range set {
		users[i] = fmt.Sprint(v)
	}
	who := strings.Join(users, ",")
	if len(conds) == 0 {
		if res, err := sizedist.Compute(m, set, sizedist.DefaultOptions()); err == nil && res.Exact {
			fmt.Fprintf(stdout, "impact distribution for users %s (analytic: %s, exact; mean %.4f):\n", who, res.Method, res.Mean())
			for k, p := range res.Dist {
				if p > 1e-9 {
					fmt.Fprintf(stdout, "  %3d reached: %.4f\n", k, p)
				}
			}
			return nil
		}
	}
	impacts, err := mh.ImpactDistribution(m, set, conds, opts, r)
	if err != nil {
		return err
	}
	hist := dist.IntHistogram(impacts)
	fmt.Fprintf(stdout, "impact distribution for users %s (sampled: mh, over %d samples):\n", who, len(impacts))
	for k, c := range hist {
		if c > 0 {
			fmt.Fprintf(stdout, "  %3d reached: %6d (%.4f)\n", k, c, float64(c)/float64(len(impacts)))
		}
	}
	return nil
}
