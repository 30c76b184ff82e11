package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/rng"
	"infoflow/internal/serve"
	"infoflow/internal/twitter"
)

// tinyCorpus writes a small generated corpus to a temp file and returns
// its path.
func tinyCorpus(t *testing.T) string {
	t.Helper()
	cfg := twitter.DefaultConfig()
	cfg.NumUsers = 40
	cfg.NumTweets = 60
	cfg.NumHashtags = 5
	cfg.NumURLs = 5
	d, err := twitter.Generate(cfg, rng.New(11))
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

var flowProbLine = regexp.MustCompile(`Pr\[0 ~> 1\] = [01]\.\d{4}`)

func TestRunEndToEndQuery(t *testing.T) {
	corpus := tinyCorpus(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-data", corpus, "-source", "0", "-sink", "1", "-samples", "100"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !flowProbLine.MatchString(stdout.String()) {
		t.Errorf("output missing flow probability line:\n%s", stdout.String())
	}
}

func TestRunMissingArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-source", "0"}, &stdout, &stderr); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run([]string{"-data", "nope.json", "-source", "0", "-sink", "1"}, &stdout, &stderr); err == nil {
		t.Fatal("nonexistent corpus accepted")
	}
}

// TestRunRejectsOutOfRangeNodes: node ids past the model, including ones
// that would wrap at int32, are errors, never a panic or a query about a
// different node.
func TestRunRejectsOutOfRangeNodes(t *testing.T) {
	corpus := tinyCorpus(t)
	for _, args := range [][]string{
		{"-source", "0", "-sink", "99999"},
		{"-source", "0", "-sink", "1", "-cond", "99999>1=1"},
		{"-source", "0", "-sink", "1", "-cond", "0>-1=0"},
		{"-source", "4294967296", "-sink", "1"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-data", corpus, "-samples", "10"}, args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%v: err = %v, want an out-of-range error (stdout %q)", args, err, stdout.String())
		}
	}
}

// TestRunRejectsBadTop: a -top below 1 is an error, as the server's
// ?top= is, never a slice-bounds panic on the community ranking.
func TestRunRejectsBadTop(t *testing.T) {
	corpus := tinyCorpus(t)
	for _, top := range []string{"-1", "0"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-data", corpus, "-source", "0", "-community", "-top", top, "-samples", "10"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-top") {
			t.Errorf("-top %s: err = %v, want a -top error (stdout %q)", top, err, stdout.String())
		}
	}
}

var maximizeHeader = regexp.MustCompile(`top-2 influence seeds over the network \(RIS sketch, \d+ RR sets\):`)

// TestRunMaximizeQuery: -maximize -k prints the selected seeds with
// their marginal gains and the set's estimated spread, deterministically
// for a fixed -seed.
func TestRunMaximizeQuery(t *testing.T) {
	corpus := tinyCorpus(t)
	var a, b, stderr bytes.Buffer
	if err := run([]string{"-data", corpus, "-maximize", "-k", "2", "-seed", "7"}, &a, &stderr); err != nil {
		t.Fatal(err)
	}
	if !maximizeHeader.MatchString(a.String()) {
		t.Errorf("output missing seed header:\n%s", a.String())
	}
	if !regexp.MustCompile(`estimated spread of the set: \d+\.\d{2} users`).MatchString(a.String()) {
		t.Errorf("output missing spread estimate:\n%s", a.String())
	}
	if err := run([]string{"-data", corpus, "-maximize", "-k", "2", "-seed", "7"}, &b, &stderr); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("repeated -maximize run diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
	var bad bytes.Buffer
	if err := run([]string{"-data", corpus, "-maximize", "-k", "0"}, &bad, &stderr); err == nil {
		t.Error("-k 0 accepted")
	}
}

var impactHeader = regexp.MustCompile(`impact distribution for users 0,1 \((analytic: [a-z-]+, exact; mean \d+\.\d{4}|sampled: mh, over 100 samples)\):`)

// TestRunImpactQuery: -impact with a multi-node -sources set prints a
// labeled size distribution — analytic when the trained model admits the
// exact law, sampled otherwise.
func TestRunImpactQuery(t *testing.T) {
	corpus := tinyCorpus(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-data", corpus, "-impact", "-sources", "0,1", "-samples", "100"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !impactHeader.MatchString(stdout.String()) {
		t.Errorf("output missing labeled impact header:\n%s", stdout.String())
	}
}

// TestRunCondsCanonicalOrder: -cond runs in flowserve's canonical order,
// so a list, its reversal and a copy with a duplicate print the same
// answer, and a forbidden self-flow or a flow both required and
// forbidden is rejected before any sampling, with a reason.
func TestRunCondsCanonicalOrder(t *testing.T) {
	corpus := tinyCorpus(t)
	query := func(cond string) (string, error) {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-data", corpus, "-source", "0", "-sink", "1", "-samples", "50", "-cond", cond}, &stdout, &stderr)
		return stdout.String(), err
	}
	sorted, err := query("0>2=0,3>4=0,5>5=1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sorted, "| 3 conditions") {
		t.Errorf("output missing the condition count:\n%s", sorted)
	}
	for _, cond := range []string{"5>5=1,3>4=0,0>2=0", "3>4=0,0>2=0,5>5=1,3>4=0"} {
		if got, err := query(cond); err != nil || got != sorted {
			t.Errorf("-cond %s: %v\n%s\nwant the sorted list's output\n%s", cond, err, got, sorted)
		}
	}
	for cond, want := range map[string]string{
		"2>2=0":             "always reaches itself",
		"3>4=1,0>2=0,3>4=0": "both required and forbidden",
	} {
		if _, err := query(cond); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-cond %s: err = %v, want one saying %q", cond, err, want)
		}
	}
}

// servedModel trains the model flowquery answers from on corpus, the
// same way run does (censored attributed training).
func servedModel(t *testing.T, corpus string) *core.ICM {
	t.Helper()
	f, err := os.Open(corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := twitter.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	real, _, _ := d.Flow.Subgraph(d.RealUsers())
	res := twitter.ExtractAttributed(real, d.Tweets)
	bm := core.NewBetaICM(real)
	if err := bm.TrainAttributedCensored(&res.Evidence); err != nil {
		t.Fatal(err)
	}
	return bm.ExpectedICM()
}

var communityLine = regexp.MustCompile(`(?m)^  -> +(\d+)  ([01]\.\d{4})$`)

// TestRunCommunityMatchesServe: flowquery -community lists a community
// in /community's order for the same corpus, seed and sample count. At
// 20 samples many nodes share a probability, and the case must hold a
// tie, so the order among equals is checked too.
func TestRunCommunityMatchesServe(t *testing.T) {
	corpus := tinyCorpus(t)
	const source, samples, seed, top = 2, 20, 3, 30
	var stdout, stderr bytes.Buffer
	err := run([]string{"-data", corpus, "-source", fmt.Sprint(source), "-community",
		"-top", fmt.Sprint(top), "-samples", fmt.Sprint(samples), "-seed", fmt.Sprint(seed)}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var cli []string
	tie := false
	for i, m := range communityLine.FindAllStringSubmatch(stdout.String(), -1) {
		cli = append(cli, m[1]+" "+m[2])
		if i > 0 && strings.HasSuffix(cli[i-1], " "+m[2]) {
			tie = true
		}
	}
	if !tie {
		t.Fatalf("no tied probabilities in the community list, so the tie order goes unchecked:\n%s", stdout.String())
	}

	srv, err := serve.NewServer(serve.Config{Models: []serve.Model{{Name: "m", ICM: servedModel(t, corpus)}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Drain()
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/community?source=%d&top=%d&samples=%d&seed=%d", ts.URL, source, top, samples, seed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Top []struct {
			Node int     `json:"node"`
			Prob float64 `json:"prob"`
		} `json:"top"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var served []string
	for _, e := range body.Top {
		served = append(served, fmt.Sprintf("%d %.4f", e.Node, e.Prob))
	}
	if strings.Join(cli, "\n") != strings.Join(served, "\n") {
		t.Errorf("flowquery -community lists\n%s\n/community lists\n%s", strings.Join(cli, "\n"), strings.Join(served, "\n"))
	}
}
