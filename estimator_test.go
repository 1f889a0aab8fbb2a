package melody

import (
	"testing"

	"melody/internal/quality"
)

// TestEstimatorConstructors pins each EstimatorConfig constructor to the
// baseline it wraps: the same observations give the same estimates.
func TestEstimatorConstructors(t *testing.T) {
	static, err := NewStaticEstimator(EstimatorConfig{Initial: 5.5, WarmupRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	refStatic, err := quality.NewStatic(5.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		got, ref Estimator
	}{
		{"STATIC", static, refStatic},
		{"ML-CR", NewMLCurrentRunEstimator(EstimatorConfig{Initial: 4.5}), quality.NewMLCurrentRun(4.5)},
		{"ML-AR", NewMLAllRunsEstimator(EstimatorConfig{Initial: 4.5}), quality.NewMLAllRuns(4.5)},
	} {
		for _, scores := range [][]float64{{8, 6}, {3}} {
			for _, est := range []Estimator{tc.got, tc.ref} {
				if err := est.Observe("w", scores); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := tc.got.Estimate("w"), tc.ref.Estimate("w"); got != want {
				t.Errorf("%s after %v: estimate %g, want %g", tc.name, scores, got, want)
			}
		}
	}
}
