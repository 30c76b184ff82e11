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
// It answers through flowserve's handler, in process: each query is a
// /flow, /community, /impact or /maximize request to a serve.Server on
// the trained model, so both tools read a query alike and give it one
// answer. -nested, which no endpoint serves, samples models directly.
//
// Conditions are comma-separated "u>v=1" (flow known present) or
// "u>v=0" (known absent). They, and -sources, are read as sets. "u>u=0"
// and a flow both required and forbidden are errors.
//
// -impact prints the cascade-size distribution of the source set: the
// exact analytic law when the model admits one and the query is
// unconditioned, otherwise the sampled MH estimate; the header labels
// which estimator answered. -maximize selects the -k seed users whose
// cascades cover the most of the network (or of the -sources community)
// by RIS-sketch lazy-greedy maximum coverage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/serve"
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
	// Flag errors that need no model come before the corpus is read.
	flow := !*maximize && !*impact && !*community
	if flow && *sink < 0 {
		if *nested > 0 {
			return fmt.Errorf("-sink required for nested query")
		}
		return fmt.Errorf("-sink required (or use -community / -impact)")
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
	bm, res, err := d.TrainAttributed(d.Tweets, *censored)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained on %d objects (%d originals recovered, %d edges skipped)\n",
		res.Objects, res.RecoveredOriginals, res.SkippedEdges)
	if flow && *nested > 0 {
		return printNested(stdout, bm, *source, *sink, *condsArg, *nested, *samples, *seed)
	}

	// -samples bounds ?samples=, so every count the flag takes is served,
	// and the CLI sets no deadline.
	srv, err := serve.NewServer(serve.Config{
		Models:         []serve.Model{{Name: "flowquery", ICM: bm.ExpectedICM()}},
		MaxSamples:     *samples,
		DefaultTimeout: time.Duration(math.MaxInt64),
	})
	if err != nil {
		return err
	}
	defer srv.Drain()
	q := url.Values{"seed": {strconv.FormatUint(*seed, 10)}, "cond": {*condsArg}}
	if !*maximize {
		// /maximize keeps its sketch's own chain schedule.
		q.Set("samples", strconv.Itoa(*samples))
	}
	switch {
	case *maximize:
		q.Set("k", strconv.Itoa(*budget))
		q.Set("community", *sourcesArg)
		a, err := ask(srv.Handler(), "/maximize", q)
		if err != nil {
			return err
		}
		scope := "network"
		if *sourcesArg != "" {
			scope = fmt.Sprintf("community of %d users", a.Universe)
		}
		fmt.Fprintf(stdout, "top-%d influence seeds over the %s (RIS sketch, %d RR sets):\n", len(a.Seeds), scope, a.RRSets)
		for i, v := range a.Seeds {
			fmt.Fprintf(stdout, "  %2d. user %6d  marginal gain %8.2f\n", i+1, v, a.MarginalGains[i])
		}
		fmt.Fprintf(stdout, "estimated spread of the set: %.2f users\n", a.SpreadEstimate)
	case *impact:
		sources := *sourcesArg
		if sources == "" {
			sources = strconv.Itoa(*source)
		}
		q.Set("sources", sources)
		a, err := ask(srv.Handler(), "/impact", q)
		if err != nil {
			return err
		}
		who := strings.Trim(string(a.Sources), "[]")
		if a.Mode == "analytic" {
			fmt.Fprintf(stdout, "impact distribution for users %s (analytic: %s, exact; mean %.4f):\n", who, a.Method, a.Mean)
			for k, p := range a.Dist {
				if p > 1e-9 {
					fmt.Fprintf(stdout, "  %3d reached: %.4f\n", k, p)
				}
			}
			return nil
		}
		// A sampled law's entries are count/samples quotients, so rounding
		// recovers each count exactly.
		fmt.Fprintf(stdout, "impact distribution for users %s (sampled: mh, over %d samples):\n", who, a.Samples)
		for k, p := range a.Dist {
			if c := math.Round(p * float64(a.Samples)); c > 0 {
				fmt.Fprintf(stdout, "  %3d reached: %6d (%.4f)\n", k, int(c), p)
			}
		}
	case *community:
		q.Set("source", strconv.Itoa(*source))
		q.Set("top", strconv.Itoa(*top))
		a, err := ask(srv.Handler(), "/community", q)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "top community flows from user %d:\n", a.Source)
		for _, e := range a.Top {
			fmt.Fprintf(stdout, "  -> %6d  %.4f\n", e.Node, e.Prob)
		}
	default:
		q.Set("source", strconv.Itoa(*source))
		q.Set("sink", strconv.Itoa(*sink))
		a, err := ask(srv.Handler(), "/flow", q)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Pr[%d ~> %d", a.Source, a.Sink)
		if a.Cond != "" {
			fmt.Fprintf(stdout, " | %d conditions", strings.Count(a.Cond, ",")+1)
		}
		fmt.Fprintf(stdout, "] = %.4f\n", a.Prob)
	}
	return nil
}

// answer holds the fields of a served body that flowquery prints. Each
// endpoint fills its own.
type answer struct {
	Error  string  `json:"error"`
	Source int     `json:"source"`
	Sink   int     `json:"sink"`
	Cond   string  `json:"cond"`
	Prob   float64 `json:"prob"`
	Top    []struct {
		Node int     `json:"node"`
		Prob float64 `json:"prob"`
	} `json:"top"`
	Sources        json.RawMessage `json:"sources"` // the set as a JSON array, [3,7]
	Mode           string          `json:"mode"`
	Method         string          `json:"method"`
	Mean           float64         `json:"mean"`
	Dist           []float64       `json:"dist"`
	Samples        int             `json:"samples"`
	Seeds          []int           `json:"seeds"`
	MarginalGains  []float64       `json:"marginal_gains"`
	SpreadEstimate float64         `json:"spread_estimate"`
	Universe       int             `json:"universe"`
	RRSets         int             `json:"rr_sets"`
}

// ask serves one GET of path with query q through h and decodes the
// body. A refused request's {"error":…} message is the error.
func ask(h http.Handler, path string, q url.Values) (*answer, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?"+q.Encode(), nil))
	var a answer
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		return nil, err
	}
	if rec.Code != http.StatusOK {
		return nil, errors.New(a.Error)
	}
	return &a, nil
}

// printNested reports the spread of Pr[source ~> sink] over models
// sampled from the betaICM, each answered by MH.
func printNested(stdout io.Writer, bm *core.BetaICM, source, sink int, cond string, models, samples int, seed uint64) error {
	n := bm.G.NumNodes()
	if source >= n {
		return fmt.Errorf("source %d out of range [0, %d)", source, n)
	}
	if sink >= n {
		return fmt.Errorf("sink %d out of range [0, %d)", sink, n)
	}
	conds, _, err := serve.ParseConds(cond, n)
	if err != nil {
		return err
	}
	opts := mh.DefaultOptions(bm.G.NumEdges())
	opts.Samples = samples
	ps, err := mh.NestedFlowProb(bm, graph.NodeID(source), graph.NodeID(sink), conds, models, opts, rng.New(seed))
	if err != nil {
		return err
	}
	s := dist.Summarize(ps)
	fit := dist.FitBetaToSamples(ps)
	fmt.Fprintf(stdout, "flow %d ~> %d: mean %.4f sd %.4f over %d sampled models (fit %v)\n",
		source, sink, s.Mean, s.StdDev(), s.N, fit)
	return nil
}
