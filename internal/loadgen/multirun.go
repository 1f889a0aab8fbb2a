package loadgen

// RunMultiRun executes the mixed-tenant scenario: the identical workload
// of every tenant's closed loop runs once with tenants one after another
// and once with all tenants at once, each pass against a fresh stack. With
// BackendWAL every mutation is appended to a durable log before it is
// acknowledged, and concurrent tenants amortize fsyncs through group
// commit, so the gap between the passes measures how much of the commit
// cost overlapping runs can share. It reports the speedup and fails unless
// every run's outcome is byte-identical across the passes, the books
// balance and no goroutine leaks. Defaults: 2 tenants, 4 runs each, 8
// workers each, 4 tasks, 8 bids per worker.
func RunMultiRun(sc Scenario) (Result, error) {
	res, _, err := multirun(sc)
	return res, err
}

// multirun is RunMultiRun, also returning the concurrent pass's digests.
func multirun(sc Scenario) (Result, map[string]string, error) {
	sc = sc.withDefaults(Scenario{Tenants: 2, Runs: 4, Workers: 8})
	res := newResult(sc)
	ts := tenants(sc)
	serial, err := runPass(sc, "serial", ts, false, (*pass).bidPhase, &res)
	if err != nil {
		return res, nil, err
	}
	conc, err := runPass(sc, "concurrent", ts, true, (*pass).bidPhase, &res)
	if err != nil {
		return res, nil, err
	}
	res.Speedup = res.SerialSeconds / res.ElapsedSeconds
	if err := compareDigests(serial, conc, sc.Tenants*sc.Runs, "concurrent"); err != nil {
		return res, conc, err
	}
	res.OutcomesMatch = true
	res, err = verdict(res)
	return res, conc, err
}
