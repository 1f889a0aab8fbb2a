package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"melody/internal/obs"
)

// percentile is the nearest-rank p-th percentile of sorted: the smallest
// sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile. A percentile is reported as a tail only when at least ten
// samples lie beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailNote flags a tail percentile metric (a name ending in _p<q>, q > 50)
// measured from too few samples to count as a tail: fewer than ten lie
// beyond it. It returns "" when the tail is supported.
func tailNote(name string, n int) string {
	i := strings.LastIndex(name, "_p")
	if i < 0 {
		return ""
	}
	q, err := strconv.ParseFloat(name[i+2:], 64)
	if err != nil || q <= 50 {
		return ""
	}
	if k := beyond(n, q); k < 10 {
		return fmt.Sprintf("(only %d samples beyond p%g; a tail needs 10)", k, q)
	}
	return ""
}

// quartiles returns the first quartile, median and third quartile with
// the method of Python's statistics.quantiles(xs, n=4) (exclusive), so
// spreads read the same here as in any tooling that uses it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Runtime metrics the benchmark reads.
const (
	rtGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU = "/cpu/classes/total:cpu-seconds"
	rtAllocs   = "/gc/heap/allocs:bytes"
	rtHeapLive = "/gc/heap/live:bytes"
)

// readRuntime samples the runtime metrics the benchmark reports.
func readRuntime() map[string]float64 {
	samples := []metrics.Sample{{Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtAllocs}, {Name: rtHeapLive}}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		default:
			out[s.Name] = math.NaN()
		}
	}
	return out
}

// scrape reads the registry's series through its Prometheus exposition, as
// an operator would.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParseText(&buf)
}

// ratio is a/b, or NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
