package melody

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// workerRegistry is the universal worker set W behind a fixed array of
// striped sets, so concurrent registrations and membership checks contend
// only when they land on the same stripe: registration and quality-lookup
// traffic never queues behind a platform-wide lock, and a RunScheduler
// shares one registry across every tenant platform. The stripe count is a
// power of two fixed at construction, and an ID's stripe is the low bits
// of its FNV-1a hash. Placement is never observable: All sorts, and
// nothing is logged per stripe.
//
// Each worker also gets its registration number, 0 for the first. A
// platform's finish reads only Count, and the numbers then tell which of
// its finishes came after a worker registered (Platform.owed); no finish
// reads the whole set.
type workerRegistry struct {
	mask    uint64
	stripes []registryStripe

	// regs counts registrations. Register takes the new worker's number
	// from it under the stripe lock, so Count covers every number handed
	// out.
	regs atomic.Int64
}

// registryEntry is one registered worker: the ID string the registry
// stores, which callers keep instead of their own copy, and its
// registration number.
type registryEntry struct {
	id  string
	seq int
}

// registryStripe maps each of its IDs to its entry.
type registryStripe struct {
	mu  sync.RWMutex
	ids map[string]registryEntry
}

// defaultRegistryStripes is the stripe count used when newWorkerRegistry
// is given n <= 0: enough to spread a GOMAXPROCS' worth of ingest
// goroutines for a few KB of overhead.
const defaultRegistryStripes = 32

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash64 is FNV-1a over the worker ID, inlined to avoid the hash.Hash
// allocation on the hot membership path. Its low bits mix every byte,
// the last ones included; its high bits barely depend on an ID's last
// characters, which is why the stripe is chosen by the low bits. The run
// archive's index keeps the top 24 bits as a run ID's fingerprint and
// multiplies them by an odd constant before taking a home slot from the
// product's top bits: from the raw top bits, IDs that differ only in
// their last characters would crowd into neighbouring slots.
func hash64(id string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return h
}

// newWorkerRegistry returns an empty registry with n stripes, rounded up
// to the next power of two; n <= 0 selects defaultRegistryStripes.
func newWorkerRegistry(n int) *workerRegistry {
	if n <= 0 {
		n = defaultRegistryStripes
	}
	size := 1
	for size < n {
		size <<= 1
	}
	r := &workerRegistry{mask: uint64(size - 1), stripes: make([]registryStripe, size)}
	for i := range r.stripes {
		r.stripes[i].ids = make(map[string]registryEntry)
	}
	return r
}

func (r *workerRegistry) stripe(id string) *registryStripe {
	return &r.stripes[hash64(id)&r.mask]
}

// Register adds a worker ID to the set. Registering an existing worker is
// a no-op; Register reports whether the ID was new.
func (r *workerRegistry) Register(id string) bool {
	s := r.stripe(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ids[id]; ok {
		return false
	}
	s.ids[id] = registryEntry{id: id, seq: int(r.regs.Add(1) - 1)}
	return true
}

// Has reports whether a worker ID is registered.
func (r *workerRegistry) Has(id string) bool {
	_, ok := r.Lookup(id)
	return ok
}

// Lookup returns the registry's stored copy of a registered worker ID.
func (r *workerRegistry) Lookup(id string) (string, bool) {
	e, ok := r.entry(id)
	return e.id, ok
}

// entry returns a registered worker's entry.
func (r *workerRegistry) entry(id string) (registryEntry, bool) {
	s := r.stripe(id)
	s.mu.RLock()
	e, ok := s.ids[id]
	s.mu.RUnlock()
	return e, ok
}

// Count returns the number of registrations so far: every worker numbered
// below it has registered.
func (r *workerRegistry) Count() int { return int(r.regs.Load()) }

// Len returns the number of registered workers. The count is per-stripe
// consistent: IDs registered concurrently may or may not be counted.
func (r *workerRegistry) Len() int {
	n := 0
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		n += len(s.ids)
		s.mu.RUnlock()
	}
	return n
}

// All returns every registered worker ID in sorted order, in a list the
// caller owns. The snapshot is per-stripe consistent, like Len, and
// includes every registration that returned before the call.
func (r *workerRegistry) All() []string {
	ids := make([]string, 0, r.Len())
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		for id := range s.ids {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// InOrder returns every registered worker ID in registration order. Call
// it only while no registration can run, as a snapshot does.
func (r *workerRegistry) InOrder() []string {
	entries := make([]registryEntry, 0, r.Len())
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		for _, e := range s.ids {
			entries = append(entries, e)
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(entries, func(a, b registryEntry) int { return cmp.Compare(a.seq, b.seq) })
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.id
	}
	return ids
}
