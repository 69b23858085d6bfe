package core

import (
	"errors"
	"fmt"
	"sync"
)

// Basis is one basis distribution (§3.1): the fingerprint of a fully
// simulated parameter point together with the output metrics computed
// for it. Payload is opaque to the store; the Monte Carlo engine keeps
// a stats summary there, the Markov engine a chain state.
type Basis struct {
	// ID is the store-assigned identity, usable with Get.
	ID int
	// Fingerprint is the basis fingerprint θi.
	Fingerprint Fingerprint
	// Payload holds the simulated output metrics oi.
	Payload any
}

// Store maintains the incrementally growing set of basis distributions
// and implements the lookup side of Algorithm 3 (FindMatch): given a
// new fingerprint, find a basis and a mapping from the basis onto it.
//
// A Store is safe for concurrent use: one read-write mutex guards the
// basis list and the index, so Matches run concurrently with each
// other and Adds take turns. The store keeps no query counters:
// callers account for their probes from Match's scan count.
// Concurrent Adds of mappable fingerprints may transiently create
// redundant bases — the same failure mode as an index miss: wasted
// work, never a wrong answer.
type Store struct {
	class LinearClass

	// mu guards bases, fpLen and index. The bases slice is
	// append-only and Basis values are immutable after Add, so a
	// snapshot of the slice header taken under the read lock stays
	// valid after it is released.
	mu    sync.RWMutex
	bases []*Basis
	fpLen int
	index Index
}

// NewStore creates a store using the given mapping class and index
// strategy. A nil index defaults to the naive array scan.
func NewStore(class LinearClass, index Index) *Store {
	if index == nil {
		index = NewArrayIndex()
	}
	return &Store{class: class, index: index}
}

// Len returns the number of basis distributions.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bases)
}

// Get returns the basis with the given id.
func (s *Store) Get(id int) (*Basis, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 || id >= len(s.bases) {
		return nil, false
	}
	return s.bases[id], true
}

// Bases returns a snapshot of the basis list in insertion order. The
// returned slice must not be mutated.
func (s *Store) Bases() []*Basis {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bases[:len(s.bases):len(s.bases)]
}

// ErrFingerprintLength is returned when a fingerprint's length differs
// from the store's established length.
var ErrFingerprintLength = errors.New("core: fingerprint length differs from store's")

// Add registers a fully simulated point as a new basis distribution
// and returns it. The first Add fixes the store's fingerprint length.
// The basis is visible to Get and Match as soon as Add returns.
func (s *Store) Add(fp Fingerprint, payload any) (*Basis, error) {
	if len(fp) == 0 {
		return nil, errors.New("core: empty fingerprint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fpLen == 0 {
		s.fpLen = len(fp)
	} else if len(fp) != s.fpLen {
		return nil, fmt.Errorf("%w: got %d, store uses %d", ErrFingerprintLength, len(fp), s.fpLen)
	}
	b := &Basis{ID: len(s.bases), Fingerprint: fp.Clone(), Payload: payload}
	s.bases = append(s.bases, b)
	s.index.Insert(b.ID, b.Fingerprint)
	return b, nil
}

// ProbeScratch carries a caller's reusable candidate-id buffer. A zero
// value is ready to use; after the first probe the buffer is warm and
// subsequent probes through the same scratch allocate nothing. A
// ProbeScratch must not be shared between concurrent Match callers —
// keep one per worker.
type ProbeScratch struct {
	ids []int
}

// Match searches for a basis distribution whose fingerprint the
// mapping class maps onto fp (the candidate-pruning and FindMapping
// loop of Algorithm 3). The returned mapping satisfies
// mapping.Apply(basis.Fingerprint[k]) ≈ fp[k] for all k. ok=false
// means the caller must run the full simulation and Add the result as
// a new basis. Candidates are tried in the index's order (see
// Index.Candidates) and the first that maps wins, so a given
// insertion history always yields the same basis. scanned counts the
// mapping-discovery attempts — the CandidatesScanned statistic.
//
// Both arguments after fp are optional (nil):
//
//   - accept filters candidates before mapping discovery; a rejected
//     basis is skipped (not scanned, not returned) rather than ending
//     the search. The Monte Carlo engine uses it to step over bases
//     whose payloads a concurrent — or abandoned — sweep never
//     finished filling in, so an abandoned registration costs one
//     redundant simulation instead of shadowing its fingerprint
//     family forever. nil accepts every basis.
//   - scratch supplies a caller-owned candidate buffer, making the
//     steady-state probe allocation-free; nil uses a local buffer
//     (one allocation per probe with candidates).
func (s *Store) Match(fp Fingerprint, accept func(*Basis) bool, scratch *ProbeScratch) (basis *Basis, mapping Linear, ok bool, scanned int) {
	// A constant probe cannot match under strict constants; skip the
	// candidate scan (boolean-output models produce mostly constant
	// fingerprints, which would otherwise pile into one bucket and
	// turn every probe into a full scan).
	if s.class.StrictConstants && fp.IsConstant() {
		return nil, Linear{}, false, 0
	}
	if scratch == nil {
		scratch = &ProbeScratch{}
	}
	// Every id the index returns was appended to bases under the same
	// lock, so it resolves in the snapshot; the mapping discovery runs
	// after the lock is released.
	s.mu.RLock()
	if s.fpLen != 0 && len(fp) != s.fpLen {
		s.mu.RUnlock()
		return nil, Linear{}, false, 0
	}
	ids := s.index.Candidates(fp, scratch.ids[:0])
	bases := s.bases[:len(s.bases):len(s.bases)]
	s.mu.RUnlock()
	scratch.ids = ids
	for _, id := range ids {
		b := bases[id]
		if accept != nil && !accept(b) {
			continue
		}
		scanned++
		if m, found := s.class.Find(b.Fingerprint, fp); found {
			return b, m, true, scanned
		}
	}
	return nil, Linear{}, false, scanned
}
