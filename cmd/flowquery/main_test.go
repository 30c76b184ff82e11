package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/serve"
	"infoflow/internal/twitter"
)

// TestRunSourcesAreASet: -sources is read as a set, as the server reads
// ?community= and ?sources=, so its order changes no answer: -maximize
// over 9,4,1 prints what it prints over 1,4,9, with the seeds and gains
// /maximize?community=9,4,1 serves, and -impact over 7,3 echoes 3,7.
func TestRunSourcesAreASet(t *testing.T) {
	def := twitter.DefaultConfig()
	corpus := flowgenCorpus(t, 300, 2000, def.FollowsPerUser, def.Reciprocity, 7)
	query := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-data", corpus}, args...), &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return stdout.String()
	}
	unsorted := query("-maximize", "-k", "3", "-sources", "9,4,1")
	if sorted := query("-maximize", "-k", "3", "-sources", "1,4,9"); unsorted != sorted {
		t.Errorf("-sources 9,4,1 prints\n%s-sources 1,4,9 prints\n%s", unsorted, sorted)
	}

	srv, err := serve.NewServer(serve.Config{Models: []serve.Model{{Name: "m", ICM: servedModel(t, corpus)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/maximize?k=3&community=9,4,1&seed=1", nil))
	var body struct {
		Seeds         []int     `json:"seeds"`
		MarginalGains []float64 `json:"marginal_gains"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/maximize: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	for i, v := range body.Seeds {
		if line := fmt.Sprintf("  %2d. user %6d  marginal gain %8.2f\n", i+1, v, body.MarginalGains[i]); !strings.Contains(unsorted, line) {
			t.Errorf("-sources 9,4,1 prints\n%swithout /maximize's seed line %q", unsorted, line)
		}
	}

	if got := query("-impact", "-sources", "7,3", "-samples", "50"); !strings.Contains(got, "impact distribution for users 3,7 (") {
		t.Errorf("-impact -sources 7,3 prints\n%swant the set echoed as 3,7", got)
	}
}

// TestRunFlagErrorsFirst: a flag error that needs no model is reported
// before the corpus is read, so a missing -sink fails at once, even
// with a corpus that does not exist.
func TestRunFlagErrorsFirst(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-source", "0"}, "-sink required (or use -community / -impact)"},
		{[]string{"-source", "0", "-nested", "3"}, "-sink required for nested query"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-data", "nope.json"}, tc.args...), &stdout, &stderr)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// The ParseConds tests pin how -nested reads -cond: serve.ParseConds
// parses the list, checks ids against the node count and returns the
// conditions in canonical order with their key.
func TestParseCondsValid(t *testing.T) {
	got, key, err := serve.ParseConds("3>7=1, 2>9=0 ,0>1=1", 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.FlowCondition{
		{Source: 0, Sink: 1, Require: true},
		{Source: 2, Sink: 9, Require: false},
		{Source: 3, Sink: 7, Require: true},
	}
	if !slices.Equal(got, want) || key != "0>1=1,2>9=0,3>7=1" {
		t.Fatalf("got %+v %q, want %+v", got, key, want)
	}
}

func TestParseCondsEmpty(t *testing.T) {
	got, key, err := serve.ParseConds("", 10)
	if err != nil || got != nil || key != "" {
		t.Fatalf("empty = %v %q, %v", got, key, err)
	}
}

func TestParseCondsInvalid(t *testing.T) {
	for _, bad := range []string{
		"3>7",     // missing requirement
		"3=1",     // missing sink
		"a>7=1",   // bad source
		"3>b=1",   // bad sink
		"3>7=2",   // bad requirement
		"3>7=1,,", // empty element
		"3 > 7 = x",
		"3>10=1", // sink out of range
	} {
		if _, _, err := serve.ParseConds(bad, 10); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
