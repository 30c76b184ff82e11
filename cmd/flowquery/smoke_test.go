package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"infoflow/internal/rng"
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
