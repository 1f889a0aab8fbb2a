package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of a paired comparison for one metric on one workload.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// Exit statuses of compare. Any status but exitWithin means the change
// may not be called harmless.
const (
	exitWithin     = 0 // every metric improved or stayed within its bound
	exitRegressed  = 1 // a metric regressed, or the change failed more often
	exitUsage      = 2 // bad flags or unreadable result files
	exitUnresolved = 3 // nothing regressed, but some metric spread wider than its bound
)

// minPairs is the fewest parent/change pairs a claimed gain may rest on.
const minPairs = 10

// judgement is the comparison of one metric's runs on both commits.
type judgement struct {
	pairs, wins                   int
	parentQ1, parentMed, parentQ3 float64
	changeQ1, changeMed, changeQ3 float64
	worse                         float64 // share of the parent median by which the change is worse (negative: better)
	spread                        float64 // the wider side's interquartile range as a share of its median
	verdict                       string
}

// judge applies the paired rule. parent[i] and change[i] are the i-th
// pair; bound is the share of the parent median by which the metric may
// worsen.
//
// A gain is claimed only with at least minPairs pairs, the change winning
// at least nine tenths of them (ties count for neither) and the medians
// differing by more than the parent's interquartile range. Otherwise a
// median worse by more than the bound is a regression, unless the runs'
// spread is wider than the bound: then the metric is unresolved. Two
// cases are decided despite a wide spread: every change run reading
// better than every parent run is not a regression, and every change run
// reading worse than every parent run, with the median worse by more than
// the bound, is one.
func judge(m metricSpec, parent, change []float64) judgement {
	j := judgement{pairs: min(len(parent), len(change))}
	lowerIsBetter := m.Better != "higher"
	better := func(c, p float64) bool {
		if lowerIsBetter {
			return c < p
		}
		return c > p
	}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	j.parentQ1, j.parentMed, j.parentQ3 = quartiles(parent)
	j.changeQ1, j.changeMed, j.changeQ3 = quartiles(change)
	j.worse = (j.changeMed - j.parentMed) / j.parentMed
	if !lowerIsBetter {
		j.worse = -j.worse
	}
	j.spread = math.Max((j.parentQ3-j.parentQ1)/j.parentMed, (j.changeQ3-j.changeQ1)/j.changeMed)
	allBetter := len(parent) > 0 && len(change) > 0
	allWorse := allBetter
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	switch {
	case j.pairs >= minPairs && 10*j.wins >= 9*j.pairs &&
		better(j.changeMed, j.parentMed) && math.Abs(j.changeMed-j.parentMed) > j.parentQ3-j.parentQ1:
		j.verdict = verdictImproved
	case allWorse && j.worse > m.Bound:
		j.verdict = verdictRegressed
	case j.spread > m.Bound && !allBetter:
		j.verdict = verdictUnresolved
	case j.worse > m.Bound:
		j.verdict = verdictRegressed
	default:
		j.verdict = verdictWithin
	}
	return j
}

// loadResults reads result files written by --out, each a JSON array of
// results.
func loadResults(paths []string) ([]result, error) {
	var all []result
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs []result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		all = append(all, rs...)
	}
	return all, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// compareMain compares untraced results of a parent and a change commit
// workload by workload and prints a verdict per end-to-end metric. Runs
// pair up in the order given, so list them in the order they were made,
// alternating which commit ran first. The exit status is one of the exit*
// constants.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parentList := fs.String("parent", "", "comma-separated result files of the parent commit")
	changeList := fs.String("change", "", "comma-separated result files of the change")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	spec, err := loadSpec(benchmarkPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	parent, err := loadResults(splitList(*parentList))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	change, err := loadResults(splitList(*changeList))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	return compare(w, spec, parent, change)
}

// compare prints the comparison and returns its exit status: exitRegressed
// when any metric regressed or the change failed more, otherwise
// exitUnresolved when any metric was unresolved, otherwise exitWithin.
func compare(w io.Writer, spec benchSpec, parent, change []result) int {
	regressed, unresolved := false, false
	byWorkload := func(rs []result) map[string][]result {
		out := map[string][]result{}
		for _, r := range rs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	p, c := byWorkload(parent), byWorkload(change)
	var names []string
	for name := range p {
		if _, ok := c[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-15s %6s %28s %28s %8s %7s %6s  %s\n",
		"workload", "metric", "bound", "parent median [q1, q3]", "change median [q1, q3]", "worse", "spread", "wins", "verdict")
	for _, name := range names {
		pr, cr := p[name], c[name]
		for _, m := range spec.EndToEnd {
			j := judge(m, values(pr, m.Name), values(cr, m.Name))
			fmt.Fprintf(w, "%-16s %-15s %5.0f%% %28s %28s %7.1f%% %6.1f%% %6s  %s\n",
				name, m.Name, 100*m.Bound,
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.parentMed, j.parentQ1, j.parentQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.changeMed, j.changeQ1, j.changeQ3),
				100*j.worse, 100*j.spread, fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
			regressed = regressed || j.verdict == verdictRegressed
			unresolved = unresolved || j.verdict == verdictUnresolved
		}
		pf, pa, pbad := failures(pr)
		cf, ca, cbad := failures(cr)
		worse := ratio(float64(cf), float64(ca)) > ratio(float64(pf), float64(pa)) || cbad > pbad
		note := ""
		if worse {
			note = "  -> the change fails more; no gain counts"
		}
		fmt.Fprintf(w, "%-16s failed operations: parent %d of %d, change %d of %d; failed checks: parent %d runs, change %d runs%s\n",
			name, pf, pa, cf, ca, pbad, cbad, note)
		regressed = regressed || worse
		if n := min(len(pr), len(cr)); n < minPairs {
			fmt.Fprintf(w, "%-16s only %d pairs: a gain needs at least %d\n", name, n, minPairs)
		}
	}
	switch {
	case regressed:
		return exitRegressed
	case unresolved:
		return exitUnresolved
	}
	return exitWithin
}

func values(rs []result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failures sums failed and attempted operations and counts runs whose
// correctness checks failed.
func failures(rs []result) (failed, attempted, incorrect int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
		if !r.Correct {
			incorrect++
		}
	}
	return failed, attempted, incorrect
}
