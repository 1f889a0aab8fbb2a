// Package core implements the single-run reverse-auction mechanisms of the
// MELODY paper (Section 4): the MELODY allocation/payment algorithm
// (Algorithm 1), the RANDOM baseline, the OPT-UB optimum upper bound used in
// the competitiveness evaluation, and a brute-force exact optimum used as a
// test oracle on tiny instances.
//
// Terminology follows the paper: in run r a requester publishes a task set
// with a budget, each worker i submits a bid (cost c_i, frequency n_i) and
// carries a platform-estimated quality mu_i; the platform outputs an
// allocation scheme X = {x_ij} and payment scheme P = {p_ij} such that every
// selected task's integrated quality sum x_ij*mu_i reaches its threshold Q_j
// and the total payment respects the budget.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Bid is a worker's declared cost per task and the maximum number of tasks
// the worker is willing to complete in the run (the paper's b_i = (c_i, n_i)).
type Bid struct {
	Cost      float64 // c_i, price demanded per task
	Frequency int     // n_i, maximum tasks this run
}

// Worker is a bidder in a single-run auction, as seen by the platform: the
// declared bid plus the platform's estimated quality mu_i = E[alpha(q_i^r)].
type Worker struct {
	ID      string
	Bid     Bid
	Quality float64 // mu_i, estimated quality
}

// Task is a unit of crowdsourcing work with a quality threshold Q_j; a task
// is satisfied when the total estimated quality allocated to it reaches the
// threshold (Definition 2).
type Task struct {
	ID        string
	Threshold float64 // Q_j
}

// Instance is one single-run-auction problem: the universal worker set, the
// published task set, and the requester's budget B.
type Instance struct {
	Workers []Worker
	Tasks   []Task
	Budget  float64
}

// Validate reports whether the instance is well formed.
func (in Instance) Validate() error {
	if err := validateBudget(in.Budget); err != nil {
		return err
	}
	seenW := make(map[string]bool, len(in.Workers))
	for _, w := range in.Workers {
		if err := validateWorker(w); err != nil {
			return err
		}
		if seenW[w.ID] {
			return fmt.Errorf("core: duplicate worker ID %q", w.ID)
		}
		seenW[w.ID] = true
	}
	seenT := make(map[string]bool, len(in.Tasks))
	for _, t := range in.Tasks {
		if err := validateTask(t); err != nil {
			return err
		}
		if seenT[t.ID] {
			return fmt.Errorf("core: duplicate task ID %q", t.ID)
		}
		seenT[t.ID] = true
	}
	return nil
}

// validateBudget, validateWorker and validateTask are the per-field checks
// behind Instance.Validate, shared with the stateful AuctionState so that
// delta application rejects exactly the inputs a from-scratch Run would.
func validateBudget(b float64) error {
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("core: budget %v must be finite and non-negative", b)
	}
	return nil
}

func validateWorker(w Worker) error {
	if w.ID == "" {
		return errors.New("core: worker with empty ID")
	}
	if !(w.Bid.Cost > 0) || math.IsInf(w.Bid.Cost, 0) {
		return fmt.Errorf("core: worker %q cost %v must be positive and finite", w.ID, w.Bid.Cost)
	}
	if w.Bid.Frequency < 1 {
		return fmt.Errorf("core: worker %q frequency %d must be at least 1", w.ID, w.Bid.Frequency)
	}
	if math.IsNaN(w.Quality) || math.IsInf(w.Quality, 0) {
		return fmt.Errorf("core: worker %q quality %v is not finite", w.ID, w.Quality)
	}
	return nil
}

func validateTask(t Task) error {
	if t.ID == "" {
		return errors.New("core: task with empty ID")
	}
	if !(t.Threshold > 0) || math.IsInf(t.Threshold, 0) {
		return fmt.Errorf("core: task %q threshold %v must be positive and finite", t.ID, t.Threshold)
	}
	return nil
}

// Config holds the platform's qualification intervals (Algorithm 1, line 1):
// the acceptable quality interval [QualityMin, QualityMax] = [Theta_m,
// Theta_M] and the acceptable cost interval [CostMin, CostMax] = [C_m, C_M].
type Config struct {
	QualityMin float64 // Theta_m, floors selected workers' quality
	QualityMax float64 // Theta_M, implied by the maximum of the score scale
	CostMin    float64 // C_m, excludes implausibly low (malicious) bids
	CostMax    float64 // C_M, required for budget feasibility
}

// Validate reports whether the qualification intervals are proper.
func (c Config) Validate() error {
	if !(c.QualityMin > 0) || c.QualityMax < c.QualityMin {
		return fmt.Errorf("core: quality interval [%v, %v] invalid", c.QualityMin, c.QualityMax)
	}
	if !(c.CostMin > 0) || c.CostMax < c.CostMin {
		return fmt.Errorf("core: cost interval [%v, %v] invalid", c.CostMin, c.CostMax)
	}
	return nil
}

// Qualifies reports whether a worker passes the qualification filter.
func (c Config) Qualifies(w Worker) bool {
	return w.Quality >= c.QualityMin && w.Quality <= c.QualityMax &&
		w.Bid.Cost >= c.CostMin && w.Bid.Cost <= c.CostMax
}

// ApproxFactorLambda returns the lambda of Lemma 3, the instance-independent
// component of the proven approximation factor:
//
//	lambda = C_M^2 (Theta_m + Theta_M) Theta_M^2 / (C_m^2 Theta_m^3)
func (c Config) ApproxFactorLambda() float64 {
	return c.CostMax * c.CostMax * (c.QualityMin + c.QualityMax) *
		c.QualityMax * c.QualityMax /
		(c.CostMin * c.CostMin * c.QualityMin * c.QualityMin * c.QualityMin)
}

// Assignment records x_ij = 1 together with its payment p_ij.
type Assignment struct {
	WorkerID string
	TaskID   string
	Payment  float64 // p_ij
}

// Outcome is the result of one single-run auction: the allocation and
// payment schemes plus aggregate accounting.
type Outcome struct {
	// Assignments lists every (worker, task, payment) triple in the final
	// scheme, i.e. the pairs with x_ij = 1.
	Assignments []Assignment
	// SelectedTasks is the set of satisfied tasks, in selection order.
	SelectedTasks []string
	// TaskPayments holds the total payment P_j of each selected task:
	// TaskPayments[i] is the payment of SelectedTasks[i].
	TaskPayments []float64
	// TotalPayment is the requester's total expense, always <= Budget.
	TotalPayment float64
}

// Utility returns the requester's utility U^r: the number of satisfied
// tasks (Definition 3).
func (o *Outcome) Utility() int { return len(o.SelectedTasks) }

// WorkerPayments sums payments per worker.
func (o *Outcome) WorkerPayments() map[string]float64 {
	out := make(map[string]float64)
	for _, a := range o.Assignments {
		out[a.WorkerID] += a.Payment
	}
	return out
}

// WorkerTaskCount counts assigned tasks per worker.
func (o *Outcome) WorkerTaskCount() map[string]int {
	out := make(map[string]int)
	for _, a := range o.Assignments {
		out[a.WorkerID]++
	}
	return out
}

// TasksOf returns the tasks assigned to the given worker, in scheme order.
func (o *Outcome) TasksOf(workerID string) []string {
	var tasks []string
	for _, a := range o.Assignments {
		if a.WorkerID == workerID {
			tasks = append(tasks, a.TaskID)
		}
	}
	return tasks
}

// Mechanism is a single-run auction algorithm: it maps an instance to an
// allocation and payment scheme.
type Mechanism interface {
	// Name identifies the mechanism in reports and figures.
	Name() string
	// Run executes the auction. Implementations must be deterministic given
	// their construction-time configuration (randomized mechanisms own a
	// seeded source).
	Run(in Instance) (*Outcome, error)
}

// rankWorkers returns the qualified workers sorted in descending order of
// estimated quality per unit cost mu_i/c_i (Algorithm 1, lines 1-2), with a
// deterministic ID tie-break so identical instances produce identical
// schemes.
func rankWorkers(workers []Worker, cfg Config) []Worker {
	ranked := make([]Worker, 0, len(workers))
	for _, w := range workers {
		if cfg.Qualifies(w) {
			ranked = append(ranked, w)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		di := ranked[i].Quality / ranked[i].Bid.Cost
		dj := ranked[j].Quality / ranked[j].Bid.Cost
		if di != dj {
			return di > dj
		}
		return ranked[i].ID < ranked[j].ID
	})
	return ranked
}

// sortTasksByThreshold returns the tasks sorted in ascending order of Q_j
// (Algorithm 1, line 3) with a deterministic ID tie-break.
func sortTasksByThreshold(tasks []Task) []Task {
	sorted := make([]Task, len(tasks))
	copy(sorted, tasks)
	slices.SortFunc(sorted, cmpTask)
	return sorted
}
