// Command bench is the end-to-end benchmark of the durable multi-tenant
// serving stack (cmd/melody-platform -multi -wal -fund -epoch-every 8). It
// boots the stack in-process on a loopback listener, drives one workload
// through platform.Client, checks every output against a serial
// reference and prints each metric with its unit and sample count. The
// last line of standard output is one JSON object with the metrics
// BENCHMARK.json names: the end-to-end set, or with --trace 1 the
// per-layer set from a second, traced pass.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload lifecycle_wal --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh compare --parent p1.json,p2.json --change c1.json,c2.json
//
// See bench/README.md for the workloads, metrics and the compare rule.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchmarkPath is the benchmark definition, relative to the repository
// root the command runs from.
const benchmarkPath = "BENCHMARK.json"

// demotedPrefix marks, in BENCHMARK.json's per-layer list, a metric that
// was meant to be gated end to end but whose run-to-run spread on this
// benchmark's reference machine exceeds the bound it was meant to carry.
// It is reported under that name from the measurement named by the rest.
const demotedPrefix = "demoted."

// commit is the commit the benchmark was built from; run.sh sets it with
// -ldflags -X. It stays "unknown" outside a git checkout.
var commit = "unknown"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64
	benchmark string
	out       string
	workdir   string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: lifecycle_wal, bids_open_r1000, auction_wal or recovery_wal")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds the workload is sized for on a 2-core machine")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics instead of the end-to-end ones")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies the history and window sizes (the smoke test uses 0.02)")
	o.benchmark = benchmarkPath
	fs.StringVar(&o.out, "out", "", "append this run's full result to a JSON array in this file")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the write-ahead logs and, with --trace 1, the sampled spans (spans_<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("bench: unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("bench: --trace must be 0 or 1")
	case !(o.seconds > 0) || !(o.scale > 0):
		return o, fmt.Errorf("bench: --seconds and --scale must be positive")
	}
	o.trace = *trace == 1
	return o, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("bench: %s: %w", path, err)
	}
	return spec, nil
}

// env records where a result was measured.
type env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	return env{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// result is one invocation's full record, as --out stores it.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Scale       float64           `json:"scale"`
	Trace       bool              `json:"trace"`
	Env         env               `json:"env"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Checks      []check           `json:"checks"`
	Metrics     map[string]metric `json:"metrics"`
	Diagnostics map[string]metric `json:"diagnostics"`
}

// run measures one workload and assembles its result. The metrics are the
// ones BENCHMARK.json lists for the mode; everything else measured goes to
// Diagnostics.
func run(o options) (*result, *measurement, error) {
	spec, err := loadSpec(o.benchmark)
	if err != nil {
		return nil, nil, err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == o.workload
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if !known {
		return nil, nil, fmt.Errorf("bench: workload %q is not in %s", o.workload, o.benchmark)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	m, err := measure(newPlan(w, o.seed, o.seconds, o.scale), dir, o.trace)
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace,
		Env: currentEnv(), Correct: m.checks.ok(), Attempted: m.attempted, Failed: m.failed,
		Checks: m.checks.checks, Metrics: map[string]metric{}, Diagnostics: map[string]metric{},
	}
	wanted := spec.EndToEnd
	if o.trace {
		wanted = spec.PerLayer
	}
	for _, want := range wanted {
		v, ok := m.metrics[strings.TrimPrefix(want.Name, demotedPrefix)]
		if !ok {
			return nil, nil, fmt.Errorf("bench: %s lists metric %q, which the benchmark does not measure", o.benchmark, want.Name)
		}
		if v.Unit != want.Unit {
			return nil, nil, fmt.Errorf("bench: metric %q is measured in %q, %s says %q", want.Name, v.Unit, o.benchmark, want.Unit)
		}
		res.Metrics[want.Name] = v
	}
	for name, v := range m.metrics {
		_, ok := res.Metrics[name]
		_, demoted := res.Metrics[demotedPrefix+name]
		if !ok && !demoted {
			res.Diagnostics[name] = v
		}
	}
	if o.trace {
		if err := m.tracer.writeSpans(filepath.Join(o.workdir, "spans_"+o.workload+".json")); err != nil {
			return nil, nil, err
		}
	}
	return res, m, nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, err)
		}
		return 2
	}
	start := time.Now()
	res, m, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	report(w, res, m, time.Since(start))
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: correctness checks failed")
		return 1
	}
	return 0
}

// report prints the human-readable result and, as the last line, the
// result object: correct, attempted, failed and the selected metrics.
func report(w *bufio.Writer, res *result, m *measurement, elapsed time.Duration) {
	fmt.Fprintf(w, "bench %s seed=%d seconds=%g scale=%g trace=%v nproc=%d GOMAXPROCS=%d %s commit=%s (%.1fs)\n",
		res.Workload, res.Seed, res.Seconds, res.Scale, res.Trace, res.Env.Nproc, res.Env.GOMAXPROCS,
		res.Env.GoVersion, res.Env.Commit, elapsed.Seconds())
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check  %s %-36s %s\n", status, c.Name, c.Detail)
	}
	printMetrics(w, "metric", res.Metrics)
	printMetrics(w, "diag  ", res.Diagnostics)
	if m.budget != nil {
		printBudget(w, res.Workload, *m.budget)
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]map[string]any{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = map[string]any{"value": jsonNumber(v.Value), "unit": v.Unit}
	}
	data, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", data)
}

// jsonNumber keeps NaN and infinities, which JSON cannot carry, out of the
// result line; they print as null.
func jsonNumber(v float64) any {
	if v != v || v > 1e308 || v < -1e308 {
		return nil
	}
	return v
}

func printMetrics(w *bufio.Writer, kind string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := metrics[n]
		fmt.Fprintf(w, "  %s %-42s %14.6g %-6s n=%d %s\n", kind, n, v.Value, v.Unit, v.N, tailNote(n, v.N))
	}
}

// appendResult adds res to the JSON array in path, creating it if needed.
func appendResult(path string, res *result) error {
	var all []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("bench: %s is not a JSON array of results: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	all = append(all, data)
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
