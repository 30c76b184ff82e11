// Package mh implements §III of the paper: Metropolis-Hastings sampling
// of ICM pseudo-states, used to estimate end-to-end, joint, conditional
// and source-to-community flow probabilities, impact (dispersion)
// distributions, and — via nested sampling over a betaICM — uncertainty
// in all of the above.
//
// The chain state is the m-bit pseudo-state x of §III-A. The proposal
// (§III-C) flips exactly one edge, chosen from a multinomial whose weight
// for edge i is p_i when the edge is inactive and 1-p_i when active,
// maintained in a Fenwick tree so proposing and updating are O(log m).
// With that proposal the Metropolis-Hastings acceptance ratio
// p_ratio/q_ratio collapses to Z_t/Z' — the ratio of the old and new
// normalizing constants — and Z updates in O(1) per flip by
// +-(1 - 2 p_i).
package mh

import (
	"context"
	"errors"
	"fmt"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/fenwick"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Options controls chain length and decorrelation.
type Options struct {
	// BurnIn is the number of initial chain steps discarded (the paper's
	// delta).
	BurnIn int
	// Thin is the number of chain steps between output samples (the
	// paper's delta'). A value of k means k steps are taken per output
	// sample.
	Thin int
	// Samples is the number of output samples drawn.
	Samples int
	// Interrupt, when non-nil, is polled between thinned samples (and
	// every Thin steps of burn-in); when it returns true the run stops
	// early with an error wrapping ErrInterrupted. The poll consumes no
	// randomness, so setting it never changes the sample stream of an
	// uninterrupted run, and the chain state remains valid after an
	// interrupted one — a subsequent Run resumes from where it stopped.
	// This is the cancellation hook the serving layer threads request
	// deadlines through (see Sampler.RunCtx for the context form).
	Interrupt func() bool
}

// DefaultOptions returns settings adequate for the graph sizes in the
// paper's experiments; Thin scales with the edge count so successive
// samples are roughly decorrelated.
func DefaultOptions(numEdges int) Options {
	thin := numEdges
	if thin < 16 {
		thin = 16
	}
	return Options{BurnIn: 4 * thin, Thin: thin, Samples: 2000}
}

func (o Options) validate() error {
	if o.BurnIn < 0 || o.Thin <= 0 || o.Samples <= 0 {
		return fmt.Errorf("mh: invalid options %+v", o)
	}
	return nil
}

// ErrUnsatisfiable is returned when no pseudo-state with positive
// probability satisfies the flow conditions (e.g. requiring a flow along
// edges of probability zero, or contradictory conditions).
var ErrUnsatisfiable = errors.New("mh: flow conditions unsatisfiable")

// ErrInterrupted is wrapped by the error Run and RunCtx return when a
// run stops early because Options.Interrupt fired or the context was
// cancelled. RunCtx errors additionally wrap the context's cause, so
// errors.Is(err, context.DeadlineExceeded) distinguishes deadline
// expiry from explicit cancellation.
var ErrInterrupted = errors.New("mh: run interrupted")

// Sampler is a Metropolis-Hastings chain over pseudo-states of one ICM,
// optionally constrained by flow conditions (§III-D). It is not safe for
// concurrent use.
type Sampler struct {
	m     *core.ICM
	conds []core.FlowCondition
	r     *rng.RNG

	// The counters Step writes on every call sit at the head of the
	// struct, next to the fields it reads, rather than at its tail, where
	// they may share a cache line with the next heap object: with them
	// last, servebench's flow_burst measured 5-7% more CPU per request
	// (2-vCPU Xeon).
	steps    int64
	accepted int64

	// winSteps/winAccepted are the post-burn-in window counters: they
	// advance with steps/accepted but are zeroed by ResetCounters, which
	// Run and RunCtx invoke when burn-in completes. Diagnostics built on
	// them therefore report the sampling phase of the most recent run
	// only, never blended with burn-in or earlier runs.
	winSteps    int64
	winAccepted int64

	// certs[b] holds the certificates of the conditions a flip that
	// leaves an edge at bit b can violate (see keepsConds): an edge
	// turned off can only break a required flow, an edge turned on can
	// only create a forbidden one.
	certs [2][]certificate

	// x is the chain's pseudo-state, packed 64 edges per word. Step
	// moves it with one XOR per flip (and a second to undo a flip the
	// conditions reject); every estimator reads it directly as the
	// active-edge mask of its traversal.
	x       core.PseudoState
	tree    *fenwick.Tree
	uniform bool

	// scratch is the chain's owned traversal state: every condition
	// check in Step and every estimator built on this sampler reuses it,
	// so steady-state sampling performs zero allocations. Owning it per
	// chain (rather than sharing) is what keeps multi-chain estimators
	// race-free without locks.
	scratch *graph.Scratch

	// via and repairQ back constructInitialState's path repairs, so
	// repeated repair rounds reuse one parent-edge array and one queue
	// instead of allocating per round. via also records the tree edges
	// of a required flow's search, from which renew builds its witness
	// path, in path.
	via     []graph.EdgeID
	repairQ []graph.NodeID
	path    []graph.EdgeID
}

// Scratch returns the sampler's owned traversal scratch, for custom
// estimators that want allocation-free flow tests against State(). It
// must only be used from the goroutine driving the chain.
func (s *Sampler) Scratch() *graph.Scratch { return s.scratch }

// StateBits returns State(). It is kept only because
// servebench/replay.go compiles against it (see TrackFlips).
//
// Deprecated: use State, which is already packed.
func (s *Sampler) StateBits() bitset.Set { return s.State() }

// TrackFlips does nothing. It is kept only because servebench/replay.go,
// the frozen serving benchmark, compiles against it.
//
// Deprecated: no caller needs a flip log.
func (s *Sampler) TrackFlips(bool) {}

// TakeFlips returns nil, true. It is kept only because
// servebench/replay.go compiles against it (see TrackFlips).
//
// Deprecated: no caller needs a flip log.
func (s *Sampler) TakeFlips() (flips []graph.EdgeID, complete bool) { return nil, true }

// SetFlipLogCap does nothing. It is kept only because
// servebench/replay.go compiles against it (see TrackFlips).
//
// Deprecated: no caller needs a flip log.
func (s *Sampler) SetFlipLogCap(int) {}

// SetUniformProposal switches the chain to a uniform flip-one-edge
// proposal instead of the paper's weighted multinomial (§III-C). The
// stationary distribution is unchanged — the acceptance ratio becomes
// the plain probability ratio p_i/(1-p_i) (or its inverse) — but mixing
// degrades on skewed edge probabilities. It exists as the ablation
// target for the design choice DESIGN.md calls out.
func (s *Sampler) SetUniformProposal(uniform bool) { s.uniform = uniform }

// NewSampler builds a chain for model m under conditions conds (nil for
// marginal sampling), seeded from r. It returns an error if a condition
// names a node outside m, and ErrUnsatisfiable if it cannot construct
// an initial state consistent with the conditions.
// Each condition's certificate holds O(n) words, so the sampler's
// memory grows with len(conds) × NumNodes; callers taking conditions
// from outside the program should bound their number.
func NewSampler(m *core.ICM, conds []core.FlowCondition, r *rng.RNG) (*Sampler, error) {
	if err := checkConds(m, conds); err != nil {
		return nil, err
	}
	s := &Sampler{m: m, conds: conds, r: r, scratch: graph.NewScratch(m.NumNodes())}
	x, err := s.initialState()
	if err != nil {
		return nil, err
	}
	s.x = x
	if len(conds) > 0 {
		n := m.NumNodes()
		if len(s.via) < n {
			s.via = make([]graph.EdgeID, n)
		}
		s.path = make([]graph.EdgeID, 0, n)
		for _, c := range conds {
			on, bits := 0, m.NumEdges()
			if !c.Require {
				on, bits = 1, n
			}
			s.certs[on] = append(s.certs[on], certificate{
				FlowCondition: c,
				mark:          bitset.New(bits),
				members:       make([]int32, 0, n),
			})
		}
		for _, certs := range s.certs {
			for k := range certs {
				if !s.renew(&certs[k]) {
					//flowlint:invariant unreachable: initialState returns a state satisfying every condition
					panic("mh: initial state violates a flow condition")
				}
			}
		}
	}
	s.tree = fenwick.New(s.weights())
	return s, nil
}

// weights returns the §III-C proposal weight of every edge in the chain
// state: flipWeights by the edge's bit. The tree holds exactly these
// values after every step, so they are recomputed rather than kept.
func (s *Sampler) weights() []float64 {
	w := make([]float64, s.m.NumEdges())
	for i := range w {
		w[i] = flipWeights(s.m.P[i])[s.x.Bit(i)]
	}
	return w
}

// checkConds is checkFlow over every condition's endpoints.
func checkConds(m *core.ICM, conds []core.FlowCondition) error {
	for i, c := range conds {
		if err := checkFlow(m, c.Source, c.Sink); err != nil {
			return fmt.Errorf("%w in condition %d", err, i)
		}
	}
	return nil
}

// flipWeights returns the §III-C proposal weights of an edge with
// activation probability p, indexed by its bit: each is proportional to
// the probability of the activity the edge would take after flipping,
// i.e. p for an inactive edge and 1-p for an active one.
func flipWeights(p float64) [2]float64 { return [2]float64{p, 1 - p} }

// rejectionTries is how many marginal draws initialState tests against
// the conditions before it constructs a state instead.
const rejectionTries = 200

// initialState finds a positive-probability pseudo-state satisfying the
// conditions: first by rejection from the marginal, then constructively.
func (s *Sampler) initialState() (core.PseudoState, error) {
	if len(s.conds) == 0 {
		return s.m.SamplePseudoState(s.r), nil
	}
	for t := 0; t < rejectionTries; t++ {
		x := s.m.SamplePseudoState(s.r)
		if s.m.SatisfiesScratch(x, s.conds, s.scratch) {
			return x, nil
		}
	}
	return s.constructInitialState()
}

// constructInitialState starts from the maximal feasible state (every
// positive-probability edge active), which satisfies all satisfiable
// positive conditions, then repairs negative conditions by cutting
// removable edges (p < 1) along offending paths, rechecking everything
// after each repair round.
func (s *Sampler) constructInitialState() (core.PseudoState, error) {
	m := s.m
	x := core.NewPseudoState(m.NumEdges())
	for i, p := range m.P {
		if p > 0 {
			x.Set(i)
		}
	}
	// A bounded number of repair rounds; each round cuts at least one
	// edge, so m rounds suffice when repair is possible at all.
	for round := 0; round <= m.NumEdges(); round++ {
		violated := false
		for _, c := range s.conds {
			if m.HasFlowScratch(c.Source, c.Sink, x, s.scratch) == c.Require {
				continue
			}
			violated = true
			if c.Require {
				// A required flow is missing even though every possible
				// edge is active (or was cut to satisfy a negative
				// condition): unsatisfiable or conflicting.
				return nil, fmt.Errorf("%w: cannot realise required flow %d~>%d",
					ErrUnsatisfiable, c.Source, c.Sink)
			}
			// Negative condition violated: cut a removable edge on some
			// active path from c.Source to c.Sink.
			id, ok := s.cuttableEdgeOnPath(x, c.Source, c.Sink)
			if !ok {
				return nil, fmt.Errorf("%w: flow %d~>%d is certain but forbidden",
					ErrUnsatisfiable, c.Source, c.Sink)
			}
			x.Clear(int(id))
		}
		if !violated {
			return x, nil
		}
	}
	return nil, ErrUnsatisfiable
}

// cuttableEdgeOnPath finds an active path source~>sink in x and returns
// the last p<1 edge along it. Returns ok=false if there is no active
// path (caller logic error) or every edge on the found path has p=1.
// The parent-edge array and queue are sampler-owned scratch, so repair
// rounds after the first allocate nothing; via[w] >= 0 doubles as the
// visited marker (the source, whose via stays -1, is excluded by the
// w == source guard).
func (s *Sampler) cuttableEdgeOnPath(x core.PseudoState, source, sink graph.NodeID) (graph.EdgeID, bool) {
	g := s.m.G
	n := g.NumNodes()
	if len(s.via) < n {
		s.via = make([]graph.EdgeID, n)
	}
	via := s.via[:n]
	for i := range via {
		via[i] = -1
	}
	queue := append(s.repairQ[:0], source)
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		v := queue[head]
		for _, id := range g.OutEdges(v) {
			if !x.Test(int(id)) {
				continue
			}
			w := g.Edge(id).To
			if w != source && via[w] < 0 {
				via[w] = id
				if w == sink {
					found = true
					break
				}
				queue = append(queue, w)
			}
		}
	}
	s.repairQ = queue[:0]
	if !found {
		return 0, false
	}
	// Walk the path backwards, returning the first removable edge.
	for v := sink; via[v] >= 0; v = s.m.G.Edge(via[v]).From {
		if s.m.P[via[v]] < 1 {
			return via[v], true
		}
	}
	return 0, false
}

// lazyProb is the probability with which a step holds the current state
// instead of proposing a flip. The flip-one-edge chain is periodic with
// period 2 whenever every proposal is accepted (e.g. all edges at p=0.5
// make Z constant and A=1 always), so the active-edge-count parity would
// alternate deterministically and thinned samples would see only one
// parity class. A lazy step with any positive hold probability makes the
// chain aperiodic while preserving its stationary distribution; 1/8
// decorrelates parity well within one thinning interval at negligible
// cost.
const lazyProb = 1.0 / 8

// Step performs one Metropolis-Hastings update (Algorithm 1, as a lazy
// chain) and reports whether the proposal was accepted.
//
//flowlint:hotpath
func (s *Sampler) Step() bool {
	s.steps++
	s.winSteps++
	zt := s.tree.Total()
	if zt <= 0 {
		// Every edge is pinned (p in {0,1} at its certain state): the
		// chain has a single reachable state and stays there.
		return false
	}
	if s.r.Float64() < lazyProb {
		return false
	}
	var (
		i int
		a float64
	)
	if s.uniform {
		// Uniform proposal ablation: q symmetric, so A = p(x')/p(x).
		i = s.r.Intn(s.m.NumEdges())
		p := s.m.P[i]
		if s.x.Test(i) {
			if p >= 1 {
				return false // flipping a certain edge off has density 0
			}
			a = (1 - p) / p
		} else {
			if p <= 0 {
				return false
			}
			a = p / (1 - p)
		}
	} else {
		i = s.tree.Sample(s.r)
		// Z' after flipping edge i: the edge's proposal weight swaps
		// between p and 1-p, so Z' = Z_t - (1-p) + p for an active edge
		// and Z_t - p + (1-p) for an inactive one, indexed by its bit
		// rather than branched on.
		w, b := flipWeights(s.m.P[i]), s.x.Bit(i)
		// Acceptance: p_ratio/q_ratio = Z_t / Z' (see package comment),
		// gated by the condition indicator I(x', C) of Equation (7). The
		// current state always satisfies C, so the indicator ratio is
		// just I(x', C).
		a = zt / (zt - w[b] + w[b^1])
	}
	if a < 1 && s.r.Float64() > a {
		return false
	}
	s.x.Flip(i)
	on := s.x.Bit(i)
	if len(s.conds) > 0 && !s.keepsConds(i, on) {
		s.x.Flip(i) // reject: candidate violates C
		return false
	}
	s.tree.Set(i, flipWeights(s.m.P[i])[on])
	s.accepted++
	s.winAccepted++
	return true
}

// certificate is the evidence that a condition holds in the chain
// state, kept valid across steps so that keepsConds searches the
// condition only when a flip touches it. Its members are edge ids for a
// required flow: an active witness path source~>sink. For a forbidden
// flow they are node ids: a superset of the nodes source reaches
// (keyTail), or of the nodes that reach sink (keyHead). mark holds the
// members as a set.
type certificate struct {
	core.FlowCondition
	key     int // index into flipKeys: what a flip must hit in mark
	mark    bitset.Set
	members []int32
}

// Certificate keys: a flip of edge i = u->v touches a witness path that
// contains i, a forward set that contains u, or a backward set that
// contains v.
const (
	keyEdge = iota
	keyTail
	keyHead
)

// flipKeys returns the keys of a flip of edge i = e, indexed by
// certificate key.
func flipKeys(i int, e graph.Edge) [3]int { return [3]int{i, int(e.From), int(e.To)} }

// keepsConds reports whether the state, just after flipping edge i to
// bit on, still satisfies every condition. The state before the flip
// satisfied all of them, and each condition's certificate still proves
// it unless the flip touches the certificate, so only those conditions
// are searched:
//
//   - an edge turned on only adds paths, so it can violate only a
//     forbidden flow, and an edge turned off can break only a required
//     one;
//   - an edge turned off that is not on a required flow's witness path
//     leaves the path active;
//   - an edge u->v turned on creates a path s~>t only if s reaches u
//     and v reaches t, so it creates none when u lies outside a
//     forbidden flow's forward set or v outside its backward set.
//
// Every skipped condition therefore holds, and the verdict is the one a
// check of every condition returns. A condition that is searched and
// holds gets the search's evidence as its new certificate (see renew).
// The certificates stay sound whatever happens to the flip afterwards:
// an accepted flip that touches none leaves each a superset or an
// active path, and one that a later condition rejects is undone to a
// state where each renewed certificate holds too (a reach set found
// with the edge on contains the one without it; a witness found with
// the edge off does not use it).
//
//flowlint:hotpath
func (s *Sampler) keepsConds(i int, on uint) bool {
	certs := s.certs[on]
	if len(certs) == 0 {
		return true
	}
	keys := flipKeys(i, s.m.G.Edge(graph.EdgeID(i)))
	for k := range certs {
		c := &certs[k]
		if c.mark.Test(keys[c.key]) && !s.renew(c) {
			return false
		}
	}
	return true
}

// renew searches c's flow in the chain state and reports whether c
// holds. If it does, the search's evidence becomes c's certificate: the
// path it found for a required flow, the frontier it exhausted for a
// forbidden one. A required self-flow gets an empty witness, which no
// flip touches.
//
//flowlint:hotpath
func (s *Sampler) renew(c *certificate) bool {
	var via []graph.EdgeID
	if c.Require {
		via = s.via
	}
	res := s.m.G.SearchPathBits(c.Source, c.Sink, s.x, s.scratch, via, s.path)
	if res.Found != c.Require {
		return false
	}
	members, key := res.Side, keyTail
	switch {
	case c.Require:
		members, key = res.Path, keyEdge
	case res.Backward:
		key = keyHead
	}
	for _, id := range c.members {
		c.mark.Clear(int(id))
	}
	c.members = append(c.members[:0], members...)
	for _, id := range c.members {
		c.mark.Set(int(id))
	}
	c.key = key
	return true
}

// AcceptanceRate returns the fraction of proposals accepted over the
// chain's whole lifetime, burn-in and repeated runs included. For the
// mixing diagnostic of the sampling phase alone use
// PostBurnInAcceptanceRate.
func (s *Sampler) AcceptanceRate() float64 {
	if s.steps == 0 {
		return 0
	}
	return float64(s.accepted) / float64(s.steps)
}

// PostBurnInAcceptanceRate returns the fraction of proposals accepted
// since the last ResetCounters — for a chain driven by Run or RunCtx,
// exactly the sampling phase of the most recent run, with burn-in and
// any earlier runs excluded. Returns 0 before any post-reset step.
func (s *Sampler) PostBurnInAcceptanceRate() float64 {
	if s.winSteps == 0 {
		return 0
	}
	return float64(s.winAccepted) / float64(s.winSteps)
}

// PostBurnInSteps returns the number of chain updates counted by the
// post-burn-in window (i.e. since the last ResetCounters).
func (s *Sampler) PostBurnInSteps() int64 { return s.winSteps }

// ResetCounters zeroes the post-burn-in window counters backing
// PostBurnInAcceptanceRate and PostBurnInSteps. Run and RunCtx call it
// when burn-in completes; drivers stepping the chain manually call it
// at their own phase boundaries. Lifetime counters (Steps,
// AcceptanceRate) are unaffected.
func (s *Sampler) ResetCounters() {
	s.winSteps = 0
	s.winAccepted = 0
}

// Steps returns the number of chain updates performed over the chain's
// whole lifetime.
func (s *Sampler) Steps() int64 { return s.steps }

// State returns the current pseudo-state. The returned set is the live
// chain state: callers must not modify it and must copy it to retain it
// across Step calls.
func (s *Sampler) State() core.PseudoState { return s.x }

// Run executes the burn-in and then emits opts.Samples thinned states to
// visit. The pseudo-state passed to visit is the live chain state; copy
// it if retaining. When burn-in completes the post-burn-in counters are
// reset, so PostBurnInAcceptanceRate afterwards reports the sampling
// phase of this run only. If opts.Interrupt fires, Run returns an error
// wrapping ErrInterrupted; the chain state remains valid and a later
// run resumes from it.
func (s *Sampler) Run(opts Options, visit func(core.PseudoState)) error {
	return s.run(nil, opts, visit)
}

// RunCtx is Run with cooperative cancellation: ctx is polled at the
// same points as opts.Interrupt (between thinned samples, and every
// Thin steps of burn-in), and a cancelled run returns an error wrapping
// both ErrInterrupted and the context's cause. The polls consume no
// randomness, so an uncancelled RunCtx is bit-identical to Run on the
// same RNG, and after a cancelled run the chain state is still valid
// (resumable by a further Run or RunCtx).
func (s *Sampler) RunCtx(ctx context.Context, opts Options, visit func(core.PseudoState)) error {
	return s.run(ctx, opts, visit)
}

func (s *Sampler) run(ctx context.Context, opts Options, visit func(core.PseudoState)) error {
	if err := opts.validate(); err != nil {
		return err
	}
	if err := s.BurnIn(ctx, opts); err != nil {
		return err
	}
	for n := 0; n < opts.Samples; n++ {
		for i := 0; i < opts.Thin; i++ {
			s.Step()
		}
		if err := s.interrupted(ctx, opts); err != nil {
			return fmt.Errorf("after %d of %d samples: %w", n, opts.Samples, err)
		}
		visit(s.x)
	}
	return nil
}

// BurnIn takes the opts.BurnIn steps Run and RunCtx discard before their
// first sample (the paper's delta), then resets the post-burn-in
// counters; Run and RunCtx begin with it. It polls opts.Interrupt and
// ctx (which may be nil) every opts.Thin steps, as they do, and an
// interrupted burn-in returns an error wrapping ErrInterrupted with the
// chain resumable. The state it leaves depends only on the steps taken,
// never on Thin or Samples, so a chain burned in here and then run with
// BurnIn 0 emits exactly the samples one run with the full BurnIn would.
func (s *Sampler) BurnIn(ctx context.Context, opts Options) error {
	if opts.BurnIn < 0 || opts.Thin <= 0 {
		return fmt.Errorf("mh: invalid burn-in options %+v", opts)
	}
	for done := 0; done < opts.BurnIn; {
		chunk := opts.Thin
		if rest := opts.BurnIn - done; chunk > rest {
			chunk = rest
		}
		for i := 0; i < chunk; i++ {
			s.Step()
		}
		done += chunk
		if err := s.interrupted(ctx, opts); err != nil {
			return fmt.Errorf("during burn-in (step %d of %d): %w", done, opts.BurnIn, err)
		}
	}
	s.ResetCounters()
	return nil
}

// interrupted reports whether the run should stop: the Options hook
// first, then the context. It never touches the RNG.
func (s *Sampler) interrupted(ctx context.Context, opts Options) error {
	if opts.Interrupt != nil && opts.Interrupt() {
		return ErrInterrupted
	}
	if ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, context.Cause(ctx))
	}
	return nil
}
