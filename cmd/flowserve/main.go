// Command flowserve serves flow queries over HTTP: it loads a corpus
// written by flowgen, trains a betaICM on the recovered retweet chains,
// and answers /flow, /community, /impact and /maximize queries against
// the trained model's expected ICM. Concurrent /flow, /community and
// sampled /impact requests coalesce into batches of up to -lanes
// distinct queries (default 512) that share one Metropolis-Hastings
// chain; /impact serves the exact analytic cascade-size law when the
// model admits one, and /maximize selects seed users by RIS sketch.
//
//	flowserve -data corpus.json -addr 127.0.0.1:8080
//	curl 'http://127.0.0.1:8080/flow?source=3&sink=42'
//	curl 'http://127.0.0.1:8080/community?source=3&top=10'
//	curl 'http://127.0.0.1:8080/flow?source=3&sink=42&cond=3>7=1&samples=5000&seed=9'
//	curl 'http://127.0.0.1:8080/impact?sources=3,7'
//	curl 'http://127.0.0.1:8080/maximize?k=5'
//	curl 'http://127.0.0.1:8080/metrics'
//
// Responses are deterministic in (model, query, options, seed): batching
// with co-arriving queries, the result cache, the kept burned-in chain
// starts, and other clients' cancellations never change an answer. SIGTERM/SIGINT drains in-flight
// batches before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/serve"
	"infoflow/internal/twitter"
)

// Connection timeouts. Without them a client that trickles its request
// header, or parks an idle keep-alive connection, holds a goroutine and
// a socket for good. There is no read or write timeout: a request's own
// deadline (-timeout) already bounds how long its answer may take.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the http.Server that serves h, with the
// connection timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "flowserve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	data := fs.String("data", "", "corpus JSON written by flowgen (required)")
	name := fs.String("name", "default", "model name served under ?model=")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	window := fs.Duration("window", 5*time.Millisecond, "batching window for coalescing concurrent queries")
	lanes := fs.Int("lanes", 512, "lane budget: distinct queries one batch may coalesce (capped at 1024)")
	workers := fs.Int("workers", 2, "batch chains that may run at once")
	queue := fs.Int("queue", 64, "flushed batches that may await a worker")
	cacheSize := fs.Int("cache", 1024, "result cache entries, also the most burned-in chain starts kept (negative disables both)")
	samples := fs.Int("samples", 2000, "default MH output samples per query")
	maxSamples := fs.Int("max-samples", 50000, "upper bound for the ?samples= parameter")
	seed := fs.Uint64("seed", 1, "default chain seed")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	censored := fs.Bool("censored", true, "use censored attributed training (recommended for chain-recovered evidence)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		fs.Usage()
		return fmt.Errorf("-data is required")
	}

	m, err := loadModel(*data, *censored, stdout)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{
		Models:         []serve.Model{{Name: *name, ICM: m}},
		Window:         *window,
		LaneBudget:     *lanes,
		Workers:        *workers,
		QueueCap:       *queue,
		CacheSize:      *cacheSize,
		DefaultSamples: *samples,
		MaxSamples:     *maxSamples,
		DefaultSeed:    *seed,
		DefaultTimeout: *timeout,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "flowserve: serving model %q (%d nodes, %d edges) on http://%s\n",
		*name, m.NumNodes(), m.NumEdges(), ln.Addr())

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "flowserve: %v received, draining\n", s)
		// Finish every admitted batch first (new queries now get 503),
		// then let in-flight handlers write their responses out.
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		met := srv.Metrics()
		fmt.Fprintf(stdout,
			"flowserve: drained: %d flow + %d community + %d impact + %d maximize requests, %d batches (occupancy %.1f; chain starts %d reused, %d built), cache hit rate %.2f, %d timeouts\n",
			met.FlowRequests.Load(), met.CommunityRequests.Load(), met.ImpactRequests.Load(), met.MaximizeRequests.Load(),
			met.Batches.Load(), met.Occupancy(), met.StartHits.Load(), met.StartMisses.Load(), met.CacheHitRate(), met.Timeouts.Load())
		return nil
	}
}

// loadModel trains a betaICM on the corpus's recovered retweet chains
// (the flowquery pipeline) and returns its expected ICM.
func loadModel(path string, censored bool, stdout io.Writer) (*core.ICM, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := twitter.Read(f)
	if err != nil {
		return nil, err
	}
	real, _, _ := d.Flow.Subgraph(d.RealUsers())
	res := twitter.ExtractAttributed(real, d.Tweets)
	bm := core.NewBetaICM(real)
	train := bm.TrainAttributed
	if censored {
		train = bm.TrainAttributedCensored
	}
	if err := train(&res.Evidence); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "flowserve: trained on %d objects (%d originals recovered, %d edges skipped)\n",
		res.Objects, res.RecoveredOriginals, res.SkippedEdges)
	return bm.ExpectedICM(), nil
}
