package melody

import (
	"errors"
	"fmt"
)

// ErrorCode is the machine-readable, wire-stable name of a platform
// sentinel error. The HTTP layer transports codes instead of error strings
// so clients can map failures back onto the sentinels with errors.Is; the
// mapping lives here, next to the sentinels, so the two cannot drift.
type ErrorCode string

// Wire error codes, one per platform sentinel error. The empty code means
// "no sentinel" (validation failures, malformed input).
const (
	CodeRunOpen       ErrorCode = "run_open"
	CodeNoRunOpen     ErrorCode = "no_run_open"
	CodeAuctionClosed ErrorCode = "auction_closed"
	CodeAuctionOpen   ErrorCode = "auction_open"
	CodeUnknownWorker ErrorCode = "unknown_worker"
	CodeNotAssigned   ErrorCode = "not_assigned"
	CodeNoForecast    ErrorCode = "no_forecast"
	CodeOverloaded    ErrorCode = "overloaded"
	CodeUnknownRun    ErrorCode = "unknown_run"
	CodeUnknownTenant ErrorCode = "unknown_tenant"
	CodeQuotaExceeded ErrorCode = "quota_exceeded"
	// CodeTenantMismatch rejects requests naming two disagreeing tenants
	// (header vs body); distinct from unknown_tenant so clients can tell a
	// routing bug from a missing tenant.
	CodeTenantMismatch ErrorCode = "tenant_mismatch"
)

// errorCodes pairs each sentinel with its code, in one place so encoding
// and decoding cannot drift.
var errorCodes = []struct {
	code     ErrorCode
	sentinel error
}{
	{CodeRunOpen, ErrRunOpen},
	{CodeNoRunOpen, ErrNoRunOpen},
	{CodeAuctionClosed, ErrAuctionClosed},
	{CodeAuctionOpen, ErrAuctionOpen},
	{CodeUnknownWorker, ErrUnknownWorker},
	{CodeNotAssigned, ErrNotAssigned},
	{CodeNoForecast, ErrNoForecast},
	{CodeOverloaded, ErrOverloaded},
	{CodeUnknownRun, ErrUnknownRun},
	{CodeUnknownTenant, ErrUnknownTenant},
	{CodeQuotaExceeded, ErrQuotaExceeded},
	{CodeTenantMismatch, ErrTenantMismatch},
}

// ErrorCodeFor maps an error onto its wire code, or "" when the error
// wraps no platform sentinel.
func ErrorCodeFor(err error) ErrorCode {
	for _, ec := range errorCodes {
		if errors.Is(err, ec.sentinel) {
			return ec.code
		}
	}
	return ""
}

// SentinelForCode maps a wire code back onto the sentinel error, or nil
// when the code is unknown.
func SentinelForCode(code ErrorCode) error {
	for _, ec := range errorCodes {
		if ec.code == code {
			return ec.sentinel
		}
	}
	return nil
}

// BatchItem is one failed item inside a BatchResult: the item's position in
// the submitted slice, the error a single-item call would have returned,
// and its wire code when the error maps onto a sentinel.
type BatchItem struct {
	Index int
	Err   error
	Code  ErrorCode
}

// BatchResult reports the per-item outcomes of a batch submission
// (SubmitBids, SubmitScores). Items are applied independently in order; a
// rejected item never aborts its neighbours, so the result carries one
// outcome per submitted item rather than a single error. The per-item
// errors are allocated only at the first failure, so an accepted batch
// costs no allocation.
//
// The zero BatchResult is an empty, fully-successful result.
type BatchResult struct {
	n      int
	errs   []error // nil while every item is accepted
	failed int
}

// NewBatchResult builds a BatchResult from a positional error slice
// (errs[i] nil meaning item i was accepted).
func NewBatchResult(errs []error) BatchResult {
	r := BatchResult{n: len(errs)}
	for _, err := range errs {
		if err != nil {
			r.errs = errs
			r.failed++
		}
	}
	return r
}

// failedBatch is the result of n items all rejected with err.
func failedBatch(n int, err error) BatchResult {
	r := BatchResult{n: n}
	for i := range n {
		r.set(i, err)
	}
	return r
}

// set records item i's outcome.
func (r *BatchResult) set(i int, err error) {
	if err == nil {
		return
	}
	if r.errs == nil {
		r.errs = make([]error, r.n)
	}
	r.errs[i] = err
	r.failed++
}

// Len returns the number of submitted items.
func (r BatchResult) Len() int { return r.n }

// OK reports whether every item was accepted.
func (r BatchResult) OK() bool { return r.failed == 0 }

// FailedCount returns how many items were rejected.
func (r BatchResult) FailedCount() int { return r.failed }

// ErrAt returns item i's outcome: nil when accepted, the same error the
// single-item call would have returned otherwise. It panics when i is out
// of range, like indexing the submitted slice would.
func (r BatchResult) ErrAt(i int) error {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("melody: batch item %d out of range [0:%d]", i, r.n))
	}
	if r.errs == nil {
		return nil
	}
	return r.errs[i]
}

// Failed returns the rejected items in submission order, each with its
// index, error and wire code.
func (r BatchResult) Failed() []BatchItem {
	if r.failed == 0 {
		return nil
	}
	out := make([]BatchItem, 0, r.failed)
	for i, err := range r.errs {
		if err != nil {
			out = append(out, BatchItem{Index: i, Err: err, Code: ErrorCodeFor(err)})
		}
	}
	return out
}

// Err rolls the failures up into one error via errors.Join, each item
// wrapped with its index; it is nil when every item was accepted. The
// joined error still matches the sentinels: errors.Is(r.Err(),
// ErrAuctionClosed) reports whether any item failed that way.
func (r BatchResult) Err() error {
	if r.failed == 0 {
		return nil
	}
	wrapped := make([]error, 0, r.failed)
	for i, err := range r.errs {
		if err != nil {
			wrapped = append(wrapped, fmt.Errorf("item %d: %w", i, err))
		}
	}
	return errors.Join(wrapped...)
}
