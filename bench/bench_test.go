package main

import (
	"bufio"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at 2% scale, untraced and traced, and
// asserts that every correctness check passed, that every metric
// BENCHMARK.json names is printed with its unit and sample count, and that
// the last line is the result object with the mode's metrics.
func TestSmoke(t *testing.T) {
	specs, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(specs.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for _, w := range specs.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 15, trace: trace, scale: 0.02,
				benchmark: "../BENCHMARK.json", workdir: dir}
			res, m, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out strings.Builder
			bw := bufio.NewWriter(&out)
			report(bw, res, m, time.Second)
			bw.Flush()
			text := out.String()
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			// The untraced pass prints the end-to-end metrics; the traced
			// run prints those as diagnostics as well as the per-layer set.
			printed := specs.EndToEnd
			want := specs.EndToEnd
			if trace {
				printed = append(append([]metricSpec(nil), specs.EndToEnd...), specs.PerLayer...)
				want = specs.PerLayer
			}
			for _, spec := range printed {
				line := regexp.MustCompile(`(?m)^  (metric|diag  ) ` + regexp.QuoteMeta(spec.Name) +
					` +\S+ ` + regexp.QuoteMeta(spec.Unit) + ` +n=\d+ `)
				if !line.MatchString(text) {
					t.Errorf("%s trace=%v: metric %s is not printed with unit %s and n", w.Name, trace, spec.Name, spec.Unit)
				}
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var last struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w.Name, trace, err)
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result line %s", w.Name, trace, lines[len(lines)-1])
			}
			for _, spec := range want {
				if _, ok := last.Metrics[spec.Name]; !ok {
					t.Errorf("%s trace=%v: result line lacks %s", w.Name, trace, spec.Name)
				}
			}
		}
	}
}
