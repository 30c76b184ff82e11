package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maximizeUnits are the fields of CI's BENCH_maximize.json.
const maximizeUnits = "ns/op=ns_per_op,ns/rr-set=ns_per_rr_set,ns/seed=ns_per_seed,speedup=speedup"

// TestRunMatchesCapturedArtifacts: on captured `go test -bench`
// transcripts (headers, sub-benchmarks, custom units, PASS/ok lines),
// the emitter writes byte for byte the JSON the awk assemblers CI used
// before it wrote for the same transcripts (testdata/*.json).
func TestRunMatchesCapturedArtifacts(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"lanes", nil},
		{"maximize", []string{"-units", maximizeUnits}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		args := append(c.args, filepath.Join("testdata", c.name+".txt"))
		if err := run(args, nil, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v (%s)", c.name, err, stderr.String())
		}
		if stdout.String() != string(want) {
			t.Errorf("%s: got\n%s\nwant\n%s", c.name, stdout.String(), want)
		}
		if !json.Valid(stdout.Bytes()) {
			t.Errorf("%s: output is not valid JSON", c.name)
		}
	}
}

// TestRunStdinAndLogLines: with no files it reads standard input; a
// benchmark name printed alone before its log output, and lines that
// are not results, add nothing; a transcript with no results is [].
func TestRunStdinAndLogLines(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkLogs",
		"    logs_test.go:12: warming up",
		"BenchmarkLogs-16   \t     100\t      12.5 ns/op",
		"BenchmarkNoMem-2 \t 3 \t 7 ns/op",
		"PASS",
		"ok  \tinfoflow/x\t0.1s",
	}, "\n")
	var stdout bytes.Buffer
	if err := run(nil, strings.NewReader(in), &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	want := "[\n" +
		`  {"name": "BenchmarkLogs", "ns_per_op": 12.5, "bytes_per_op": null, "allocs_per_op": null},` + "\n" +
		`  {"name": "BenchmarkNoMem", "ns_per_op": 7, "bytes_per_op": null, "allocs_per_op": null}` + "\n]\n"
	if stdout.String() != want {
		t.Errorf("got\n%s\nwant\n%s", stdout.String(), want)
	}
	stdout.Reset()
	if err := run(nil, strings.NewReader("PASS\n"), &stdout, &bytes.Buffer{}); err != nil || stdout.String() != "[]\n" {
		t.Errorf("empty transcript: %q, %v; want [], nil", stdout.String(), err)
	}
}

// TestRunRejectsBadInput: a value that is not a JSON number, a
// malformed -units list and a missing file are errors.
func TestRunRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		args []string
		in   string
	}{
		{nil, "BenchmarkX-2 \t 1 \t NaN ns/op"},
		{nil, "BenchmarkX-2 \t 1 \t .5 ns/op"},
		{[]string{"-units", "ns/op"}, ""},
		{[]string{"-units", "ns/op=,B/op=b"}, ""},
		{[]string{filepath.Join(t.TempDir(), "missing.txt")}, ""},
	} {
		if err := run(c.args, strings.NewReader(c.in), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q) on %q succeeded", c.args, c.in)
		}
	}
}
