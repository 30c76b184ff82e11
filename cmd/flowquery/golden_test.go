package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infoflow/internal/rng"
	"infoflow/internal/testkit"
	"infoflow/internal/twitter"
)

// flowgenCorpus writes the corpus flowgen writes for -users, -tweets,
// -follows, -reciprocity and -seed to a temp file and returns its path.
func flowgenCorpus(t *testing.T, users, tweets, follows int, reciprocity float64, seed uint64) string {
	t.Helper()
	cfg := twitter.DefaultConfig()
	cfg.NumUsers, cfg.NumTweets = users, tweets
	cfg.FollowsPerUser, cfg.Reciprocity = follows, reciprocity
	d, err := twitter.Generate(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// transcriptEntry is one flowquery run: the corpus it read, its
// arguments after -data, and what it printed, line by line.
type transcriptEntry struct {
	Corpus string   `json:"corpus"`
	Args   string   `json:"args"`
	Stdout []string `json:"stdout"`
}

// TestGoldenTranscript pins what flowquery prints, byte for byte, for
// every query kind on three corpora: flowgen -users 300 -tweets 2000
// -seed 7 ("paper"), the same with -follows 1 -reciprocity 0, whose
// trained model is a forest, so -impact answers analytically
// ("forest"), and the smoke tests' 40-user corpus ("tiny"). The cases
// cover -cond in two orders with a duplicate, ties in a -top 30 list at
// 20 samples, -nested with and without -cond, a -maximize community
// under -cond, -k of every node and -k past a community's size, and the
// literal training rule. Regenerate with
//
//	go test ./cmd/flowquery -run TestGoldenTranscript -update-golden
//
// only for an intended change of what flowquery prints.
func TestGoldenTranscript(t *testing.T) {
	corpora := map[string]string{
		"paper":  flowgenCorpus(t, 300, 2000, twitter.DefaultConfig().FollowsPerUser, twitter.DefaultConfig().Reciprocity, 7),
		"forest": flowgenCorpus(t, 300, 2000, 1, 0, 7),
		"tiny":   tinyCorpus(t),
	}
	cases := []struct{ corpus, args string }{
		{"paper", "-source 3 -sink 42 -samples 2000 -seed 5"},
		{"paper", "-source 3 -sink 42 -samples 300 -cond 3>7=1,3>9=0"},
		{"paper", "-source 3 -sink 42 -samples 300 -cond 3>9=0,3>7=1,3>9=0"},
		{"paper", "-source 3 -community -top 5 -samples 300"},
		{"paper", "-source 2 -community -top 30 -samples 20 -seed 3"},
		{"paper", "-source 3 -impact -samples 300"},
		{"paper", "-source 3 -sink 42 -nested 5 -samples 100"},
		{"paper", "-source 3 -sink 42 -nested 4 -samples 100 -cond 3>7=1"},
		{"paper", "-maximize -k 3 -sources 1,4,9"},
		{"paper", "-maximize -k 2 -sources 1,4,9,12,20 -cond 0>2=0 -seed 6"},
		{"paper", "-maximize -k 5 -sources 1,4 -seed 3"},
		{"paper", "-maximize -k 300"},
		{"forest", "-source 3 -impact"},
		{"forest", "-impact -sources 3,5,8"},
		{"forest", "-source 0 -sink 43 -samples 300"},
		{"forest", "-maximize -k 3 -seed 9 -censored=false"},
		{"tiny", "-source 0 -sink 1 -samples 100"},
		{"tiny", "-source 0 -sink 1 -samples 100 -seed 2 -censored=false"},
		{"tiny", "-source 2 -community -top 30 -samples 20 -seed 3"},
		{"tiny", "-source 0 -community -top 8 -samples 100 -cond 0>1=1"},
		{"tiny", "-impact -sources 0,1 -samples 100"},
		{"tiny", "-source 0 -impact -samples 100 -cond 0>1=1"},
		{"tiny", "-maximize -k 2 -seed 7"},
		{"tiny", "-maximize -k 4 -sources 1,3,5,7"},
	}
	var out []transcriptEntry
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-data", corpora[c.corpus]}, strings.Fields(c.args)...), &stdout, &stderr); err != nil {
			t.Fatalf("%s %s: %v", c.corpus, c.args, err)
		}
		out = append(out, transcriptEntry{
			Corpus: c.corpus, Args: c.args,
			Stdout: strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n"),
		})
	}
	testkit.Golden(t, "transcript", out)
}
