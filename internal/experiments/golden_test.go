package experiments

import (
	"strings"
	"testing"

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
