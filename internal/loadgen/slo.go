package loadgen

// The SLO gate: turn an overload measurement into a pass/fail verdict CI
// can act on. Targets are expressed relative to the machine (shed-rate
// fractions, tail-over-median ratios, rates derived from a calibration
// run) rather than as absolute latencies, so the gate holds on a loaded CI
// box and a fast workstation alike.

import (
	"errors"
	"fmt"
	"strings"
)

// SLO is a set of service-level assertions over an open-loop Result. Zero
// fields disable their check (except failures and invariant violations,
// which always count — see AssertSLO).
type SLO struct {
	// MaxShedRate is the highest tolerable Shed/Offered fraction. At rated
	// load this is near zero; under deliberate overload it is close to the
	// overload factor's implied floor. Negative disables, zero means "shed
	// nothing".
	MaxShedRate float64
	// MinShedRate asserts the scenario actually overloaded the server —
	// a 3x overload run that shed nothing measured the wrong thing.
	MinShedRate float64
	// MinAccepted is the least goodput (accepted bids) the run must show:
	// a server that sheds 100% is "up" in no useful sense.
	MinAccepted int
	// MinRunsCompleted asserts settlement survived the load; normally
	// the scenario's Runs.
	MinRunsCompleted int
	// MaxP99OverP50 bounds the accepted-bid tail relative to its own
	// median — the machine-scaled form of a p99 target. Zero disables.
	MaxP99OverP50 float64
	// MaxP99Ms is an optional absolute ceiling for environments that can
	// promise one. Zero disables.
	MaxP99Ms float64
	// MaxGoroutineGrowth bounds GoroutineEnd - GoroutineStart after
	// shutdown. Zero disables.
	MaxGoroutineGrowth int
	// AllowFailures tolerates that many non-shed errors; failures beyond
	// it (default: any) violate the SLO.
	AllowFailures int
}

// AssertSLO checks res against slo and returns one error listing every
// missed target, or nil when the SLO holds. Invariant violations recorded
// on the result (money conservation, escrow settlement, unfinished runs)
// always fail the gate, whatever the SLO says.
func AssertSLO(res Result, slo SLO) error {
	var missed []string
	for _, v := range res.Violations {
		missed = append(missed, "invariant: "+v)
	}
	if res.Failed > slo.AllowFailures {
		missed = append(missed, fmt.Sprintf("failures: %d non-shed errors (allowed %d)",
			res.Failed, slo.AllowFailures))
	}
	if slo.MaxShedRate >= 0 && res.ShedRate > slo.MaxShedRate {
		missed = append(missed, fmt.Sprintf("shed rate %.3f > max %.3f", res.ShedRate, slo.MaxShedRate))
	}
	if slo.MinShedRate > 0 && res.ShedRate < slo.MinShedRate {
		missed = append(missed, fmt.Sprintf("shed rate %.3f < min %.3f (scenario did not overload)",
			res.ShedRate, slo.MinShedRate))
	}
	if res.Accepted < slo.MinAccepted {
		missed = append(missed, fmt.Sprintf("accepted %d < min %d", res.Accepted, slo.MinAccepted))
	}
	if res.RunsCompleted < slo.MinRunsCompleted {
		missed = append(missed, fmt.Sprintf("runs completed %d < min %d (settlement starved)",
			res.RunsCompleted, slo.MinRunsCompleted))
	}
	if slo.MaxP99OverP50 > 0 && res.Latency.N > 0 && res.Latency.P50 > 0 {
		if ratio := res.Latency.P99 / res.Latency.P50; ratio > slo.MaxP99OverP50 {
			missed = append(missed, fmt.Sprintf("p99/p50 %.1f > max %.1f (p99 %.2fms, p50 %.2fms)",
				ratio, slo.MaxP99OverP50, res.Latency.P99, res.Latency.P50))
		}
	}
	if slo.MaxP99Ms > 0 && res.Latency.P99 > slo.MaxP99Ms {
		missed = append(missed, fmt.Sprintf("p99 %.2fms > max %.2fms", res.Latency.P99, slo.MaxP99Ms))
	}
	if slo.MaxGoroutineGrowth > 0 {
		if growth := res.GoroutineEnd - res.GoroutineStart; growth > slo.MaxGoroutineGrowth {
			missed = append(missed, fmt.Sprintf("goroutines grew by %d > max %d (%d -> %d)",
				growth, slo.MaxGoroutineGrowth, res.GoroutineStart, res.GoroutineEnd))
		}
	}
	if len(missed) == 0 {
		return nil
	}
	return errors.New("loadgen: SLO violated:\n  - " + strings.Join(missed, "\n  - "))
}

// CalibrateRate measures this machine's closed-loop ingest capacity with a
// short ungated run and returns it in bids/sec. The SLO smoke derives its
// rated and overload rates from this number, so the same gate passes on
// any machine that can serve at all: "rated" means a fraction of what this
// box just demonstrated, not a hard-coded request rate.
func CalibrateRate(sc Scenario) (float64, error) {
	sc.Admission = nil // measure capacity, not policy
	res, err := Run(sc)
	if err != nil {
		return 0, fmt.Errorf("loadgen: calibrate: %w", err)
	}
	if res.BidsPerSec <= 0 {
		return 0, errors.New("loadgen: calibrate: measured zero throughput")
	}
	return res.BidsPerSec, nil
}
