package dist

import (
	"math"
	"slices"
	"testing"
)

// TestRunMetropolisSchedule drives RunMetropolis with a step that keeps
// every second proposal, each kept one raising x[0] by 1: 2-step sweeps,
// 3 burn-in sweeps, then 4 rows 2 sweeps apart.
func TestRunMetropolisSchedule(t *testing.T) {
	x := []float64{0, 5}
	calls := 0
	run := RunMetropolis(x, 2, 3, 2, 4, func() bool {
		calls++
		if calls%2 == 0 {
			x[0]++
			return true
		}
		return false
	})
	if calls != 2*(3+2*4) {
		t.Errorf("%d steps, want 22", calls)
	}
	want := [][]float64{{5, 5}, {7, 5}, {9, 5}, {11, 5}}
	if !slices.EqualFunc(run.Samples, want, slices.Equal[[]float64]) {
		t.Errorf("rows %v, want %v", run.Samples, want)
	}
	if !slices.Equal(run.Mean, []float64{8, 5}) || !slices.Equal(run.StdDev, []float64{math.Sqrt(5), 0}) {
		t.Errorf("mean %v sd %v, want [8 5] [√5 0]", run.Mean, run.StdDev)
	}
	if run.AcceptanceRate != 0.5 {
		t.Errorf("acceptance %v, want 0.5", run.AcceptanceRate)
	}
}
