package mh

import (
	"testing"

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
		for i, w := range pool.Cover.Bits {
			if w != ref.Cover.Bits[i] {
				t.Fatalf("words=%d: cover word %d is %#x, want %#x", words, i, w, ref.Cover.Bits[i])
			}
		}
	}
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
	for i := range a.Cover.Bits {
		if a.Cover.Bits[i] != b.Cover.Bits[i] {
			t.Fatalf("cover word %d differs across identical builds", i)
		}
	}
}
