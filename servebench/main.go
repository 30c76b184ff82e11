// Command servebench measures the flowserve serving stack at the
// paper's §IV-C scale (6000 users, 14000 edges) on three traffic mixes.
// It builds the models in-process, starts serve.NewServer with
// flowserve's defaults and drives Server.Handler().ServeHTTP directly,
// so there are no sockets and every request in flight is a goroutine.
// Every answer is checked bit for bit against the library afterwards.
//
//	servebench --workload flow_burst --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced run). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"infoflow/internal/serve"
)

// setupReps is how many times a run builds the models, the server and
// warms it up; setup_s is the median of their CPU times.
const setupReps = 5

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool // tiny models and pages, for the benchmark's own tests
	// wrap, when set, wraps the server's handler (the benchmark's own
	// tests use it to make an endpoint fail).
	wrap func(http.Handler) http.Handler
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "flow_burst, cond_pages or select_impact")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed (drives query generation only)")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.small, "small", false, "tiny models and pages (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "servebench: unknown workload %q (want flow_burst, cond_pages or select_impact)\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "servebench: --seconds must be positive")
		return 2
	}
	rep, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	rep.print(stdout)
	return rep.exitCode(stderr)
}

// workloadSpec binds a workload name to its request loop.
type workloadSpec struct {
	// lead is the endpoint whose p50 latency lead_p50_ms reports.
	lead endpoint
	// loop builds the request loop of one phase from a query seed.
	loop func(env *environment, seed uint64) (loopFunc, error)
}

var workloads = map[string]workloadSpec{
	"flow_burst": {lead: epFlow, loop: func(env *environment, seed uint64) (loopFunc, error) {
		return closedPages(newBurstGen(env.sm, env.burst, seed).next), nil
	}},
	"cond_pages": {lead: epFlow, loop: func(env *environment, seed uint64) (loopFunc, error) {
		pool, err := env.evidencePool()
		if err != nil {
			return nil, err
		}
		return closedPages(newCondGen(env.sm, pool, env.cond, seed).next), nil
	}},
	"select_impact": {lead: epMaximize, loop: func(env *environment, seed uint64) (loopFunc, error) {
		return closedCallers(selectCallers, func(c int) func() request {
			return newSelectGen(env.sm, seed, c).next
		}), nil
	}},
}

// selectCallers is the select_impact client count: one per core of the
// 2-core reference box.
const selectCallers = 2

// environment is a set-up server plus the generator state of a run.
type environment struct {
	sm    *servedModels
	srv   *serve.Server
	burst burstShape
	cond  condShape
	pool  []evidence
}

func (env *environment) evidencePool() ([]evidence, error) {
	if env.pool == nil {
		pool, err := buildEvidencePool(env.sm.paper, env.cond)
		if err != nil {
			return nil, err
		}
		env.pool = pool
	}
	return env.pool, nil
}

// setup builds both models and a server with flowserve's defaults and
// warms every endpoint with queries no workload asks.
func setup(small bool) (*environment, error) {
	sc, burst, cond := paperScale, burstDefault, condDefault
	if small {
		sc, burst, cond = smallScale, burstSmall, condSmall
	}
	paper, tree := paperModel(sc), treeModel(sc)
	srv, err := serve.NewServer(serve.Config{Models: []serve.Model{
		{Name: "paper", ICM: paper},
		{Name: "tree", ICM: tree},
	}})
	if err != nil {
		return nil, err
	}
	env := &environment{sm: newServedModels(paper, tree), srv: srv, burst: burst, cond: cond}
	for _, url := range []string{
		fmt.Sprintf("/flow?model=paper&source=0&sink=1&samples=2&seed=%d", warmSeed),
		fmt.Sprintf("/community?model=paper&source=0&samples=2&seed=%d", warmSeed),
		fmt.Sprintf("/impact?model=paper&sources=0&mode=sampled&samples=2&seed=%d", warmSeed),
		fmt.Sprintf("/impact?model=tree&sources=%d", sc.nodes-1),
		fmt.Sprintf("/maximize?model=paper&k=2&samples=2&roots=64&seed=%d", warmSeed),
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			srv.Drain()
			return nil, fmt.Errorf("warm-up %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
	}
	return env, nil
}

// warmSeed is the chain seed of warm-up queries; workloads never use it.
const warmSeed = 987654321

func execute(cfg config, stderr io.Writer) (*report, error) {
	var env *environment
	// Set-up is timed in process CPU time: on a shared VM its wall time
	// moves with host steal far more than its CPU time does (README.md).
	setups := make([]float64, 0, setupReps)
	walls := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0, c0 := time.Now(), processCPU()
		e, err := setup(cfg.small)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
		if env != nil {
			env.srv.Drain()
		}
		env = e
	}
	defer env.srv.Drain()
	spec := workloads[cfg.workload]
	rep := newReport(cfg, spec)
	rep.stderr, rep.env = stderr, env
	rep.setupS, rep.setupWallS = median(setups), median(walls)

	seconds := cfg.seconds
	if cfg.trace {
		// A traced run measures half its time untraced and half traced;
		// the difference is the tracing overhead.
		seconds /= 2
	}
	loop, err := spec.loop(env, cfg.seed*16)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	handler := func(s *serve.Server) http.Handler {
		if cfg.wrap != nil {
			return cfg.wrap(s.Handler())
		}
		return s.Handler()
	}
	h := &harness{srv: env.srv, handler: handler(env.srv)}
	rep.phases = append(rep.phases, runPhase(h, seconds, loop))
	if cfg.trace {
		// The traced half runs on a fresh server with new queries, so it
		// neither reads the untraced half's cache nor queues behind it.
		env.srv.Drain()
		fresh, err := setup(cfg.small)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		defer fresh.srv.Drain()
		fresh.pool = env.pool
		env, rep.env = fresh, fresh
		if loop, err = spec.loop(env, cfg.seed*16+1); err != nil {
			return nil, err
		}
		runtime.GC()
		h = &harness{srv: env.srv, handler: handler(env.srv), tr: newTracer()}
		rep.tracer = h.tr
		rep.phases = append(rep.phases, runPhase(h, seconds, loop))
	}
	env.srv.Drain()

	chk := newChecker(env)
	for _, ph := range rep.phases {
		chk.add(ph.outcomes)
	}
	if err := chk.run(); err != nil {
		return nil, err
	}
	rep.mismatches = chk.mismatches
	for _, msg := range chk.samples {
		fmt.Fprintln(stderr, "mismatch:", msg)
	}
	rep.Correct = chk.mismatches == 0
	if cfg.trace {
		if err := rep.replay(); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}

// runRecord identifies the machine and code a result came from.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func newRunRecord(cfg config) runRecord {
	return runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitID(),
	}
}

// commitID is the source revision the launcher passes in
// SERVEBENCH_COMMIT, or "unknown" outside a git checkout.
func commitID() string {
	if c := os.Getenv("SERVEBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final JSON line.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeResult(w io.Writer, line resultLine) {
	b, _ := json.Marshal(line) // only floats and strings; finite by construction
	fmt.Fprintln(w, string(b))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
