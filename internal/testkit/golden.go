package testkit

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden is registered once for every test binary importing
// testkit; run `go test <pkg> -update-golden` to regenerate that
// package's golden corpus after an intentional behaviour change.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite golden files under testdata/golden instead of comparing")

// Golden compares got — canonicalised through indented JSON, with <, >
// and & written as they are, so a condition reads 3>7=1 — against
// testdata/golden/<name>.json relative to the calling test's package
// directory. A mismatch fails the test with both serialisations; with
// -update-golden the file is (re)written instead, so intentional drift
// becomes a reviewable diff in the committed corpus.
func Golden(t *testing.T, name string, got any) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatalf("testkit: marshal golden %q: %v", name, err)
	}
	data := buf.Bytes()
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("testkit: create golden dir: %v", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("testkit: write golden %s: %v", path, err)
		}
		t.Logf("testkit: wrote %s (%d bytes)", path, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("testkit: read golden %s (run with -update-golden to create it): %v", path, err)
	}
	if !bytes.Equal(want, data) {
		t.Errorf("testkit: %q drifted from the golden corpus.\n--- got ---\n%s--- want (%s) ---\n%s"+
			"If the change is intentional, regenerate with -update-golden and review the diff.",
			name, data, path, want)
	}
}

// Round quantises x to the given number of decimal digits. Golden corpus
// builders round derived floats so the corpus pins ~10 significant
// digits of behaviour while staying insensitive to sub-ulp libm
// differences across platforms.
func Round(x float64, digits int) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	scale := math.Pow(10, float64(digits))
	return math.Round(x*scale) / scale
}

// RoundSlice applies Round elementwise, returning a new slice.
func RoundSlice(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = Round(x, digits)
	}
	return out
}
