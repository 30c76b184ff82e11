package bucket

import (
	"strings"
	"testing"
)

// reportExperiment builds a small deterministic experiment: a
// well-populated low bin, a deliberately miscalibrated high bin, and
// everything else empty.
func reportExperiment(t *testing.T) *Result {
	t.Helper()
	e := &Experiment{}
	// Bin [0.2,0.3): 20 pairs at 0.25, 5 positive — calibrated.
	for i := 0; i < 20; i++ {
		e.MustAdd(0.25, i < 5)
	}
	// Bin [0.9,1.0]: 10 pairs at 0.95, none positive — badly off.
	for i := 0; i < 10; i++ {
		e.MustAdd(0.95, false)
	}
	res, err := e.Analyze(10)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultString(t *testing.T) {
	res := reportExperiment(t)
	s := res.String()
	// One header, one row per non-empty bin, one coverage line.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if want := 1 + res.NonEmpty + 1; len(lines) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), want, s)
	}
	if !strings.Contains(lines[0], "est.mean") || !strings.Contains(lines[0], "95% CI") {
		t.Errorf("header missing columns: %q", lines[0])
	}
	// The calibrated bin renders the paper's cross, the miscalibrated one
	// the dot.
	if !strings.Contains(s, "[0.200,0.300)") {
		t.Errorf("low bin label missing:\n%s", s)
	}
	var lowMark, highMark string
	for _, ln := range lines[1 : len(lines)-1] {
		fields := strings.Fields(ln)
		mark := fields[len(fields)-1]
		switch {
		case strings.HasPrefix(ln, "[0.200"):
			lowMark = mark
		case strings.HasPrefix(ln, "[0.900"):
			highMark = mark
		}
	}
	if lowMark != "x" {
		t.Errorf("calibrated bin marked %q, want x:\n%s", lowMark, s)
	}
	if highMark != "o" {
		t.Errorf("miscalibrated bin marked %q, want o:\n%s", highMark, s)
	}
	if !strings.Contains(lines[len(lines)-1], "coverage: 0.500 over 2 non-empty bins") {
		t.Errorf("coverage line wrong: %q", lines[len(lines)-1])
	}
}

func TestVolumePlot(t *testing.T) {
	res := reportExperiment(t)
	s := res.VolumePlot()
	if !strings.Contains(s, "volume (#)") {
		t.Errorf("header missing:\n%s", s)
	}
	// Two non-empty bins, each contributing a # bar and a + bar line.
	if got := strings.Count(s, "[0."); got != 2 {
		t.Errorf("%d bin rows, want 2:\n%s", got, s)
	}
	if !strings.Contains(s, "#") {
		t.Errorf("no volume bars:\n%s", s)
	}
	// The fuller bin gets the wider bar; the all-negative bin draws no +.
	var lowBar, highBar int
	for _, ln := range strings.Split(s, "\n") {
		if strings.HasPrefix(ln, "[0.200") {
			lowBar = strings.Count(ln, "#")
		}
		if strings.HasPrefix(ln, "[0.900") {
			highBar = strings.Count(ln, "#")
		}
	}
	if lowBar <= highBar {
		t.Errorf("bar widths %d (n=20) vs %d (n=10) not ordered:\n%s", lowBar, highBar, s)
	}
}

// TestExperimentReport checks the figures' report: the analysis and both
// measure sets match the separate calls, the rendering is the table then
// the measures line, and an experiment whose estimates all sit at 0 or 1
// reports zero-valued middle measures instead of an error.
func TestExperimentReport(t *testing.T) {
	e := &Experiment{}
	for i := 0; i < 20; i++ {
		e.MustAdd(0.25, i < 5)
		e.MustAdd(1, i < 18)
	}
	rep, err := e.Report(10)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := e.Compute()
	middle, _ := e.ComputeMiddle()
	if rep.All != all || rep.Middle != middle || rep.Analysis.NonEmpty != 2 {
		t.Errorf("report = %+v, want all %+v middle %+v over 2 bins", rep, all, middle)
	}
	if got, want := rep.String(), rep.Analysis.String()+rep.Measures(); got != want {
		t.Errorf("String = %q, want table then measures %q", got, want)
	}
	if !strings.HasPrefix(rep.Measures(), "normalised likelihood: ") || strings.Count(rep.Measures(), "\n") != 1 {
		t.Errorf("measures line = %q", rep.Measures())
	}

	extremes := &Experiment{}
	extremes.MustAdd(0, false)
	extremes.MustAdd(1, true)
	rep, err = extremes.Report(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Middle != (Metrics{}) || rep.All.Count != 2 {
		t.Errorf("extremes report: all %+v, middle %+v; want zero middle", rep.All, rep.Middle)
	}
	if _, err := (&Experiment{}).Report(10); err == nil {
		t.Error("empty experiment reported")
	}
}
