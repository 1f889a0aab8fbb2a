package melody

import (
	"slices"
	"sort"
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
// All keeps its sorted list until the next registration, because every
// finish reads the whole set and registrations are rare by comparison.
type workerRegistry struct {
	mask    uint64
	stripes []registryStripe

	// regs counts registrations. Register bumps it after the insert, so a
	// list tagged with a count read before collecting is never reused past
	// a registration it may have missed.
	regs atomic.Uint64

	sortedMu sync.Mutex
	sorted   []string // All's cached list; nil until built
	sortedAt uint64   // regs when the cached list was collected
}

// registryStripe maps each of its IDs to the string the registry stores
// for it, so callers can keep that copy instead of their own.
type registryStripe struct {
	mu  sync.RWMutex
	ids map[string]string
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
// characters, which is why the stripe is chosen by the low bits.
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
		r.stripes[i].ids = make(map[string]string)
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
	s.ids[id] = id
	r.regs.Add(1)
	return true
}

// Has reports whether a worker ID is registered.
func (r *workerRegistry) Has(id string) bool {
	_, ok := r.Lookup(id)
	return ok
}

// Lookup returns the registry's stored copy of a registered worker ID.
func (r *workerRegistry) Lookup(id string) (string, bool) {
	s := r.stripe(id)
	s.mu.RLock()
	stored, ok := s.ids[id]
	s.mu.RUnlock()
	return stored, ok
}

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

// All returns every registered worker ID in sorted order. The snapshot is
// per-stripe consistent, like Len, and includes every registration that
// returned before the call. The list is shared by every caller until the
// next registration, so callers must not modify it; it is clipped, so an
// append copies.
func (r *workerRegistry) All() []string {
	at := r.regs.Load()
	r.sortedMu.Lock()
	if r.sorted != nil && r.sortedAt == at {
		ids := r.sorted
		r.sortedMu.Unlock()
		return ids
	}
	r.sortedMu.Unlock()

	ids := make([]string, 0, r.Len())
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		for id := range s.ids {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sort.Strings(ids)
	ids = slices.Clip(ids)
	r.sortedMu.Lock()
	if r.sorted == nil || at >= r.sortedAt {
		r.sorted, r.sortedAt = ids, at
	}
	r.sortedMu.Unlock()
	return ids
}
