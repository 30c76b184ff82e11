package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one registered experiment at either scale and returns
// a printable result.
type Runner struct {
	Name        string
	Description string
	// Run executes the experiment; small selects the fast configuration.
	Run func(small bool) (fmt.Stringer, error)
}

// Registry lists every reproducible table and figure by its paper label.
func Registry() []Runner {
	runners := []Runner{
		{
			Name:        "fig1",
			Description: "MH bucket calibration on synthetic betaICMs",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig1(pick(small, Fig1Small, Fig1Paper))
			},
		},
		{
			Name:        "fig2",
			Description: "bucket experiments on attributed Twitter evidence (radius 1-2, 0/5 known flows)",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig2(pick(small, Fig2Small, Fig2Paper))
			},
		},
		{
			Name:        "fig3",
			Description: "uncertainty: nested-MH flow distribution vs empirical beta",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig3(pick(small, Fig3Small, Fig3Paper))
			},
		},
		{
			Name:        "fig4",
			Description: "predicted vs actual tweet impact (retweet counts)",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig4(pick(small, Fig4Small, Fig4Paper))
			},
		},
		{
			Name:        "fig5",
			Description: "random walk with restart bucket experiment (baseline)",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig5(pick(small, Fig5Small, Fig5Paper))
			},
		},
		{
			Name:        "fig6",
			Description: "per-sample cost, ours vs Goyal, with and without summarisation",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig6(pick(small, Fig6Small, Fig6Paper))
			},
		},
		{
			Name:        "fig7",
			Description: "RMSE vs evidence volume for Our/Goyal/Filtered/Saito",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig7(pick(small, Fig7Small, Fig7Paper))
			},
		},
		{
			Name:        "fig8",
			Description: "URL flow prediction, ours vs Goyal, radius 4-5",
			Run: func(small bool) (fmt.Stringer, error) {
				return RunTag(pick(small, Fig8Small, Fig8Paper))
			},
		},
		{
			Name:        "fig9",
			Description: "hashtag flow prediction (substantially harder), ours vs Goyal",
			Run: func(small bool) (fmt.Stringer, error) {
				return RunTag(pick(small, Fig9Small, Fig9Paper))
			},
		},
		{
			Name:        "fig10",
			Description: "URL flow with gaussian edge-uncertainty sampling (30 graphs)",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig10(pick(small, Fig10Small, Fig10Paper))
			},
		},
		{
			Name:        "fig11",
			Description: "Saito EM restarts vs joint-Bayes MCMC on Table II",
			Run: func(small bool) (fmt.Stringer, error) {
				return Fig11(pick(small, Fig11Small, Fig11Paper))
			},
		},
		{
			Name:        "ablation",
			Description: "design ablations: weighted vs uniform proposal; omnipotent user on/off",
			Run: func(small bool) (fmt.Stringer, error) {
				return Ablation(pick(small, AblationSmall, AblationPaper))
			},
		},
		{
			Name:        "batch",
			Description: "batched multi-query estimation (one chain) vs one chain per pair (timing)",
			Run: func(small bool) (fmt.Stringer, error) {
				return RunBatch(pick(small, BatchSmall, BatchPaper))
			},
		},
		{
			Name:        "influence",
			Description: "influence maximization: RIS-sketch selection vs MC-greedy CELF, seed quality and wall-clock (timing)",
			Run: func(small bool) (fmt.Stringer, error) {
				return RunInfluence(pick(small, InfluenceSmall, InfluencePaper))
			},
		},
		{
			Name:        "sizedist",
			Description: "analytic cascade-size law vs sampled MH impact: TV agreement and paired timings",
			Run: func(small bool) (fmt.Stringer, error) {
				return RunSizedist(pick(small, SizedistSmall, SizedistPaper))
			},
		},
		{
			Name:        "table1",
			Description: "example evidence summary",
			Run:         func(bool) (fmt.Stringer, error) { return TableI(), nil },
		},
		{
			Name:        "table2",
			Description: "multimodal example evidence summary",
			Run:         func(bool) (fmt.Stringer, error) { return TableII(), nil },
		},
		{
			Name:        "table3",
			Description: "accuracy measures (normalised likelihood and Brier) across experiments",
			Run: func(small bool) (fmt.Stringer, error) {
				return Table3(pick(small, Table3Small, Table3Paper))
			},
		},
	}
	sort.Slice(runners, func(i, j int) bool { return runners[i].Name < runners[j].Name })
	return runners
}

// Lookup finds a runner by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

func pick[T any](small bool, smallFn, paperFn func() T) T {
	if small {
		return smallFn()
	}
	return paperFn()
}
