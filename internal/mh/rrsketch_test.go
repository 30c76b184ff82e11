package mh

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// TestBuildRRPoolMatchesScalar pins the pool's semantics to first
// principles: replaying the chain with the same seed and the same
// Options, bit b of Cover.Row(u) must equal a scalar flow test
// u ~> Roots[b] in the pseudo-state of sample b/rootsPerSample. This
// also proves the root stream and the chain stream are independent —
// the replay uses no root RNG at all yet sees the same states.
func TestBuildRRPoolMatchesScalar(t *testing.T) {
	m := batchTestModel(71, 24, 60)
	opts := Options{BurnIn: 64, Thin: 16, Samples: 4}
	const perSample = 64
	pool, err := BuildRRPool(m, nil, nil, perSample, 0, opts, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumSets != opts.Samples*perSample || pool.Universe != m.NumNodes() {
		t.Fatalf("pool shape: NumSets=%d Universe=%d", pool.NumSets, pool.Universe)
	}

	// Replay the chain alone on the same seed: BuildRRPool forks the
	// root stream before constructing the sampler, so the chain RNG
	// state matches a bare Fork-then-NewSampler sequence.
	r := rng.New(9)
	_ = r.Fork()
	s, err := NewSampler(m, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	sc := graph.NewScratch(m.NumNodes())
	sample := 0
	err = s.Run(opts, func(x core.PseudoState) {
		for off := 0; off < perSample; off++ {
			b := sample*perSample + off
			root := pool.Roots[b]
			for u := 0; u < m.NumNodes(); u++ {
				want := m.HasFlowScratch(graph.NodeID(u), root, x, sc)
				if got := pool.Cover.TestBit(u, b); got != want {
					t.Fatalf("sample %d set %d (root %d): node %d: pool %v, scalar %v",
						sample, b, root, u, got, want)
				}
			}
		}
		sample++
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuildRRPoolWidthInvariant pins that BuildRRPool ignores its
// deprecated words argument: the same seed must produce a bit-identical
// Cover matrix and root sequence for every value, including ones the
// retired lane sweep rejected (above MaxLaneWords, negative).
func TestBuildRRPoolWidthInvariant(t *testing.T) {
	m := batchTestModel(72, 30, 80)
	opts := Options{BurnIn: 64, Thin: 16, Samples: 3}
	const perSample = 192
	ref, err := BuildRRPool(m, nil, nil, perSample, 1, opts, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{0, 2, 3, 16, MaxLaneWords + 1, -4} {
		pool, err := BuildRRPool(m, nil, nil, perSample, words, opts, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		for i, root := range pool.Roots {
			if root != ref.Roots[i] {
				t.Fatalf("words=%d: root %d is %d, want %d", words, i, root, ref.Roots[i])
			}
		}
		if v, ok := sameCover(pool.Cover, ref.Cover); !ok {
			t.Fatalf("words=%d: cover row %d differs", words, v)
		}
	}
}

// sameCover reports whether two covers have the same shape and every
// row the same words and form, or else the first row that differs.
func sameCover(a, b *bitset.SparseRows) (int, bool) {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return -1, false
	}
	for v := 0; v < a.Rows(); v++ {
		if a.IsDense(v) != b.IsDense(v) || !slices.Equal(a.Row(v), b.Row(v)) {
			return v, false
		}
	}
	return 0, true
}

// TestBuildRRPoolTargets checks the community-targeted pool: roots come
// only from the (deduplicated) target set, Universe is the distinct
// target count, and out-of-range targets are rejected.
func TestBuildRRPoolTargets(t *testing.T) {
	m := batchTestModel(73, 20, 50)
	targets := []graph.NodeID{3, 7, 11, 7, 3, 15}
	opts := Options{BurnIn: 32, Thin: 16, Samples: 2}
	pool, err := BuildRRPool(m, targets, nil, 64, 0, opts, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if pool.Universe != 4 || len(pool.Targets) != 4 {
		t.Fatalf("universe %d targets %v, want 4 distinct", pool.Universe, pool.Targets)
	}
	allowed := map[graph.NodeID]bool{3: true, 7: true, 11: true, 15: true}
	for i, root := range pool.Roots {
		if !allowed[root] {
			t.Fatalf("root %d is %d, outside the target set", i, root)
		}
	}
	if _, err := BuildRRPool(m, []graph.NodeID{99}, nil, 64, 0, opts, rng.New(13)); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := BuildRRPool(m, nil, nil, 63, 0, opts, rng.New(13)); err == nil {
		t.Fatal("rootsPerSample not a multiple of 64 accepted")
	}
}

// TestBuildRRPoolDeterministic re-runs the full build on one seed and
// demands bit-identical pools — the fixed-seed contract end to end.
func TestBuildRRPoolDeterministic(t *testing.T) {
	m := batchTestModel(74, 40, 110)
	opts := Options{BurnIn: 64, Thin: 16, Samples: 3}
	a, err := BuildRRPool(m, nil, nil, 128, 0, opts, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRRPool(m, nil, nil, 128, 0, opts, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sameCover(a.Cover, b.Cover); !ok {
		t.Fatalf("cover row %d differs across identical builds", v)
	}
	if !slices.Equal(a.Roots, b.Roots) {
		t.Fatal("roots differ across identical builds")
	}
}

// TestBuildRRPoolCoverRows checks both row forms of the cover against a
// dense reference. On near-critical and supercritical pools, whole-graph
// and targeted, with and without a required flow, every Row(v) must
// equal the words grown set by set from closure reachability on the
// transposed graph, and TestBit and RowCount must agree with them. A
// row is dense exactly when it holds at least NumSets/32 sets, and the
// cover holds at most the dense matrix's bytes plus a header per row.
func TestBuildRRPoolCoverRows(t *testing.T) {
	opts := Options{BurnIn: 100, Thin: 20, Samples: 6}
	const perSample = 64
	for _, tc := range []struct {
		name      string
		m         *core.ICM
		wantDense bool
	}{
		{name: "near-critical", m: tallyModel(91, 0.3, 0.5)},
		{name: "supercritical", m: tallyModel(92, 0.5, 1), wantDense: true},
	} {
		m := tc.m
		n := m.NumNodes()
		gt := transposed(t, m.G)
		var required []core.FlowCondition
		for v := graph.NodeID(1); int(v) < n && required == nil; v++ {
			if m.HasFlow(0, v, maximalState(m)) {
				required = []core.FlowCondition{{Source: 0, Sink: v, Require: true}}
			}
		}
		if required == nil {
			t.Fatalf("%s: node 0 reaches nothing", tc.name)
		}
		for _, targets := range [][]graph.NodeID{nil, {2, 3, 5, 7, 11, 13, 17, 19}} {
			for _, conds := range [][]core.FlowCondition{nil, required} {
				name := fmt.Sprintf("%s targets=%d conds=%d", tc.name, len(targets), len(conds))
				pool, err := BuildRRPool(m, targets, conds, perSample, 0, opts, rng.New(93))
				if err != nil {
					t.Fatal(err)
				}
				want := make([]bitset.Set, n)
				for v := range want {
					want[v] = bitset.New(pool.NumSets)
				}
				r := rng.New(93)
				_ = r.Fork()
				s, err := NewSampler(m, conds, r)
				if err != nil {
					t.Fatal(err)
				}
				b := 0
				err = s.Run(opts, func(x core.PseudoState) {
					active := func(id graph.EdgeID) bool { return x.Test(int(id)) }
					for end := b + perSample; b < end; b++ {
						for u, ok := range gt.Reachable([]graph.NodeID{pool.Roots[b]}, active) {
							if ok {
								want[u].Set(b)
							}
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				dense := checkCoverRows(t, name, pool.Cover, want)
				if tc.wantDense && dense == 0 {
					t.Errorf("%s: no row switched to dense words", name)
				}
			}
		}
	}
}

// checkCoverRows compares every row of cover with the dense reference
// want, checks the form rule and the byte bound, and returns the number
// of dense rows.
func checkCoverRows(t *testing.T, name string, cover *bitset.SparseRows, want []bitset.Set) int {
	t.Helper()
	n, sets := cover.Rows(), cover.Cols()
	if n != len(want) {
		t.Fatalf("%s: cover has %d rows, want %d", name, n, len(want))
	}
	dense, total := 0, 0
	for v := 0; v < n; v++ {
		if got := cover.Row(v); !slices.Equal(got, want[v]) {
			t.Fatalf("%s: row %d is %#x, want %#x", name, v, got, []uint64(want[v]))
		}
		count := want[v].Count()
		if got := cover.RowCount(v); got != count {
			t.Fatalf("%s: row %d counts %d sets, want %d", name, v, got, count)
		}
		for b := 0; b < sets; b++ {
			if cover.TestBit(v, b) != want[v].Test(b) {
				t.Fatalf("%s: TestBit(%d, %d) = %v, reference %v", name, v, b, !want[v].Test(b), want[v].Test(b))
			}
		}
		if cover.IsDense(v) != (count >= sets/32) {
			t.Fatalf("%s: row %d holds %d of %d sets, dense %v", name, v, count, sets, cover.IsDense(v))
		}
		if cover.IsDense(v) {
			dense++
		}
		total += count
	}
	if got := cover.Count(); got != total {
		t.Errorf("%s: Count() = %d, want %d", name, got, total)
	}
	if got, bound := cover.Bytes(), n*sets/8+64*n; got > bound {
		t.Errorf("%s: cover holds %d bytes, bound %d", name, got, bound)
	}
	return dense
}

// TestBuildRRPoolRowForms builds pools on the §IV-C graph. At the
// served shape (64 thinned states × 256 roots at Thin = NumEdges) every
// row of the whole-graph pool stays a list, so the cover holds about a
// tenth of the dense matrix's bytes. On supercriticalModel, where an RR
// set holds about half the graph, most rows switch to dense words and
// the cover stays within the dense matrix's bytes plus a header per row.
func TestBuildRRPoolRowForms(t *testing.T) {
	served := servedModel()
	opts := DefaultOptions(served.NumEdges())
	opts.Samples = 64
	pool, err := BuildRRPool(served, nil, nil, DefaultRootsPerSample, 0, opts, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	n := served.NumNodes()
	denseBytes := n * pool.NumSets / 8
	maxRow := 0
	for v := 0; v < n; v++ {
		if pool.Cover.IsDense(v) {
			t.Fatalf("served pool: row %d switched to dense words with %d sets", v, pool.Cover.RowCount(v))
		}
		maxRow = max(maxRow, pool.Cover.RowCount(v))
	}
	t.Logf("served pool: %d memberships, largest row %d of threshold %d, %d cover bytes against %d dense",
		pool.Cover.Count(), maxRow, pool.NumSets/32, pool.Cover.Bytes(), denseBytes)
	if got := pool.Cover.Bytes(); got > denseBytes/4 {
		t.Errorf("served pool: cover holds %d bytes, want at most a quarter of the dense %d", got, denseBytes)
	}

	super := supercriticalModel()
	opts = DefaultOptions(super.NumEdges())
	opts.Samples = 4
	pool, err = BuildRRPool(super, nil, nil, DefaultRootsPerSample, 0, opts, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	n = super.NumNodes()
	dense := 0
	for v := 0; v < n; v++ {
		if pool.Cover.IsDense(v) {
			dense++
		}
	}
	denseBytes = n * pool.NumSets / 8
	t.Logf("supercritical pool: %d of %d rows dense, %d cover bytes against %d dense",
		dense, n, pool.Cover.Bytes(), denseBytes)
	if dense < n/2 {
		t.Errorf("supercritical pool: %d of %d rows dense, want most", dense, n)
	}
	if got, bound := pool.Cover.Bytes(), denseBytes+64*n; got > bound {
		t.Errorf("supercritical pool: cover holds %d bytes, bound %d", got, bound)
	}
}

// TestBuildRRPoolRejectsOversize: a shape with more than MaxUint32 sets,
// or whose Samples × rootsPerSample overflows an int, is an error before
// anything is allocated for it.
func TestBuildRRPoolRejectsOversize(t *testing.T) {
	m := batchTestModel(75, 10, 20)
	for _, shape := range []struct{ samples, roots int }{
		{math.MaxUint32/64 + 1, 64},
		{1 << 26, 64},
		{math.MaxInt/256 + 1, 256},
		{math.MaxInt, 64},
	} {
		opts := Options{BurnIn: 1, Thin: 1, Samples: shape.samples}
		if _, err := BuildRRPool(m, nil, nil, shape.roots, 0, opts, rng.New(1)); err == nil {
			t.Errorf("%d samples × %d roots accepted", shape.samples, shape.roots)
		}
	}
}
