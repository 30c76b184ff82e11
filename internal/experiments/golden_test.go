package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"infoflow/internal/graph"
	"infoflow/internal/rng"
	"infoflow/internal/testkit"
)

// TestGoldenBucketRenderings pins the rendered Figure 1 and Figure 5
// results line for line: the calibration table, Figure 1's volume plot
// and the Table III measures line, whose numbers are printed at six
// digits. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenBucketRenderings -update-golden
//
// only for an intended change of what the figures report.
func TestGoldenBucketRenderings(t *testing.T) {
	fig1, err := Fig1(Fig1Small())
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := Fig5(Fig5Small())
	if err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "bucket_renderings", map[string][]string{
		"fig1": strings.Split(fig1.String(), "\n"),
		"fig5": strings.Split(fig5.String(), "\n"),
	})
}

// TestGoldenTwitterLabModel pins the model every Twitter experiment
// starts from: NewTwitterLab on Figure 2's small corpus, its split, the
// extraction's counts, a digest of each trained edge's endpoints and
// Beta parameter bits in EdgeID order, and the generator's next draw,
// which the figures go on reading from.
func TestGoldenTwitterLabModel(t *testing.T) {
	cfg := Fig2Small()
	r := rng.New(cfg.Seed)
	lab, err := NewTwitterLab(cfg.Twitter, cfg.TrainFrac, r)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var word [8]byte
	for id, b := range lab.Trained.B {
		e := lab.RealFlow.Edge(graph.EdgeID(id))
		for _, w := range []uint64{uint64(e.From), uint64(e.To), math.Float64bits(b.Alpha), math.Float64bits(b.Beta)} {
			binary.LittleEndian.PutUint64(word[:], w)
			h.Write(word[:])
		}
	}
	testkit.Golden(t, "twitter_lab_model", map[string]any{
		"nodes":               lab.RealFlow.NumNodes(),
		"edges":               lab.RealFlow.NumEdges(),
		"train_cut":           lab.TrainCut,
		"train_tweets":        len(lab.TrainTweets),
		"test_tweets":         len(lab.TestTweets),
		"objects":             lab.Extraction.Objects,
		"recovered_originals": lab.Extraction.RecoveredOriginals,
		"skipped_edges":       lab.Extraction.SkippedEdges,
		"beta_digest":         fmt.Sprintf("%016x", h.Sum64()),
		"next":                r.Uint64(),
	})
}
