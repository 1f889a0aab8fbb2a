package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {999, 99, 9}, {100, 90, 10}, {99, 90, 9}, {10, 50, 5},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		name    string
		n       int
		flagged bool
	}{
		{"op_ms_p99", 1000, false}, {"op_ms_p99", 999, true},
		{"phase.close_ms_p90", 100, false}, {"phase.close_ms_p90", 99, true},
		{"op_ms_p50", 3, false}, {"heap_mb", 1, false},
	} {
		if got := tailNote(c.name, c.n) != ""; got != c.flagged {
			t.Errorf("tailNote(%s, n=%d) flagged = %v, want %v", c.name, c.n, got, c.flagged)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// around returns n runs spread evenly over [center-width/2, center+width/2].
func around(center, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center - width/2 + width*float64(i)/float64(n-1)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	latency := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	rate := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"clear gain", latency, around(100, 4, 10), around(80, 4, 10), verdictImproved},
		{"gain on too few pairs", latency, around(100, 4, 9), around(80, 4, 9), verdictWithin},
		{"gain within the parent's spread", latency, around(100, 40, 10), around(90, 4, 10), verdictUnresolved},
		{"no change", latency, around(100, 4, 10), around(101, 4, 10), verdictWithin},
		{"worse within bound", latency, around(100, 4, 10), around(108, 4, 10), verdictWithin},
		{"worse beyond bound", latency, around(100, 4, 10), around(115, 4, 10), verdictRegressed},
		{"spread wider than bound", latency, around(100, 40, 10), around(105, 40, 10), verdictUnresolved},
		{"every run worse despite the spread", latency, around(100, 40, 10), around(200, 40, 10), verdictRegressed},
		{"every run worse, but within bound", latency, around(100, 1, 10), around(102, 1, 10), verdictWithin},
		{"every run better despite the spread", latency, around(100, 40, 9), around(50, 20, 9), verdictWithin},
		{"throughput drop", rate, around(1000, 20, 10), around(850, 20, 10), verdictRegressed},
		{"throughput gain", rate, around(1000, 20, 10), around(1200, 20, 10), verdictImproved},
	} {
		if got := judge(c.m, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeCountsWinsPairwiseAndTiesForNeither(t *testing.T) {
	m := metricSpec{Better: "lower", Bound: 0.1}
	parent := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 9}
	if j := judge(m, parent, change); j.wins != 2 || j.pairs != 4 {
		t.Errorf("wins %d of %d pairs, want 2 of 4", j.wins, j.pairs)
	}
}

func TestCompareExitStatus(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.1}}}
	runs := func(values []float64, failed int) []result {
		out := make([]result, len(values))
		for i, v := range values {
			out[i] = result{Workload: "w", Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"heap_mb": {Value: v, Unit: "MB"}}}
		}
		return out
	}
	parent := runs(around(100, 4, 10), 0)
	for _, c := range []struct {
		name   string
		change []result
		want   int
	}{
		{"same", runs(around(101, 4, 10), 0), exitWithin},
		{"regressed", runs(around(120, 4, 10), 0), exitRegressed},
		{"unresolved", runs(around(104, 40, 10), 0), exitUnresolved},
		{"fails more operations", runs(around(101, 4, 10), 1), exitRegressed},
	} {
		var out strings.Builder
		if got := compare(&out, spec, parent, c.change); got != c.want {
			t.Errorf("%s: exit status %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
