package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	// Label describes the originating parameter point for diagnostics.
	Label string
	// Payload holds the simulated output metrics oi.
	Payload any
}

// storeShardCount is the number of lock shards a Store uses when its
// index supports signature routing. A power of two so the signature
// can be masked instead of divided.
const storeShardCount = 32

// storeShard is one lock shard: a private sub-index guarded by its own
// mutex. Fingerprints are routed to shards by their index signature
// (Sharder), so two fingerprints the mapping class can relate always
// meet in the same shard and concurrent operations on unrelated
// fingerprints never contend.
type storeShard struct {
	mu    sync.RWMutex
	index Index
	// sharder is index's Sharder capability, asserted once at
	// construction (nil for unsharded stores) so the probe path does
	// not re-assert per signature.
	sharder Sharder
	// epoch counts the basis insertions this shard has absorbed. A
	// speculative match records the epochs of the shards it probed; an
	// unchanged epoch at commit time proves the shard's candidate
	// lists are exactly what the speculation scanned, so the
	// speculative outcome can be committed without re-probing. The
	// counter is written under mu and read without it (see
	// ViewCurrent), hence atomic.
	epoch atomic.Uint64
}

// Store maintains the incrementally growing set of basis distributions
// and implements the lookup side of Algorithm 3 (FindMatch): given a
// new fingerprint, find a basis and a mapping from the basis onto it.
//
// A Store is safe for concurrent use. The basis list is guarded by a
// read-write mutex; index operations are guarded by sharded locks
// keyed on the fingerprint's index signature when the index strategy
// supports it (NormalizationIndex and SortedSIDIndex do), and by a
// single lock otherwise (ArrayIndex and external Index
// implementations). The store keeps no query counters: callers
// account for their probes from a MatchView. Concurrent Adds of
// mappable fingerprints may transiently create redundant bases — the
// same failure mode as an index miss: wasted work, never a wrong
// answer.
type Store struct {
	class MappingClass
	tol   float64

	// mu guards bases and fpLen. The bases slice is append-only and
	// Basis values are immutable after Add, so holding the read lock
	// only while copying the slice header is sufficient.
	mu    sync.RWMutex
	bases []*Basis
	fpLen int

	// shards holds the lock shards; len(shards) == 1 when the index
	// does not implement Sharder.
	shards  []storeShard
	sharder Sharder
}

// DefaultTolerance is the relative tolerance used to validate mappings
// and compare fingerprint entries. Affine reuse of a deterministic
// stream is exact up to floating-point rounding; 1e-9 accommodates
// rounding while remaining far below any model-level signal.
const DefaultTolerance = 1e-9

// NewStore creates a store using the given mapping class and index
// strategy. A nil index defaults to the naive array scan; a nil class
// defaults to the linear class. When the index implements Sharder the
// store spreads it over storeShardCount lock shards; otherwise the
// single index instance is guarded by one lock.
func NewStore(class MappingClass, index Index, tol float64) *Store {
	if class == nil {
		class = LinearClass{}
	}
	if index == nil {
		index = NewArrayIndex()
	}
	if tol <= 0 {
		tol = DefaultTolerance
	}
	s := &Store{class: class, tol: tol}
	if sh, ok := index.(Sharder); ok {
		s.sharder = sh
		s.shards = make([]storeShard, storeShardCount)
		s.shards[0].index = index
		s.shards[0].sharder = sh
		for i := 1; i < storeShardCount; i++ {
			fork := sh.Fork()
			s.shards[i].index = fork
			s.shards[i].sharder = fork.(Sharder)
		}
	} else {
		s.shards = []storeShard{{index: index}}
	}
	return s
}

// shardFor maps a signature to its lock shard.
func (s *Store) shardFor(sig uint64) *storeShard {
	return &s.shards[sig&uint64(len(s.shards)-1)]
}

// Tolerance returns the store's relative tolerance.
func (s *Store) Tolerance() float64 { return s.tol }

// Class returns the store's mapping class.
func (s *Store) Class() MappingClass { return s.class }

// IndexName returns the active index strategy's name.
func (s *Store) IndexName() string { return s.shards[0].index.Name() }

// Shards returns the number of lock shards (1 for non-Sharder
// indexes).
func (s *Store) Shards() int { return len(s.shards) }

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
//
// The basis becomes visible to Get immediately and to Match once its
// index insertion completes; a Match racing with Add may miss the new
// basis, which costs one redundant simulation and nothing else.
func (s *Store) Add(fp Fingerprint, label string, payload any) (*Basis, error) {
	if len(fp) == 0 {
		return nil, errors.New("core: empty fingerprint")
	}
	s.mu.Lock()
	if s.fpLen == 0 {
		s.fpLen = len(fp)
	} else if len(fp) != s.fpLen {
		got := len(fp)
		want := s.fpLen
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: got %d, store uses %d", ErrFingerprintLength, got, want)
	}
	b := &Basis{ID: len(s.bases), Fingerprint: fp.Clone(), Label: label, Payload: payload}
	s.bases = append(s.bases, b)
	s.mu.Unlock()

	sh := &s.shards[0]
	if s.sharder != nil {
		sh = s.shardFor(s.sharder.InsertSignature(b.Fingerprint))
	}
	sh.mu.Lock()
	sh.index.Insert(b.ID, b.Fingerprint)
	sh.epoch.Add(1)
	sh.mu.Unlock()
	return b, nil
}

// InsertSignature reports the index signature under which Add files
// fp — the key a speculative-commit loop needs to track its own
// registrations per probe bucket. ok is false when the index does not
// shard (every insertion then lands in the store's single implicit
// bucket).
func (s *Store) InsertSignature(fp Fingerprint) (sig uint64, ok bool) {
	if s.sharder == nil {
		return 0, false
	}
	return s.sharder.InsertSignature(fp), true
}

// Sharded reports whether the index routes fingerprints by signature
// (see Sharder); unsharded stores treat the whole index as one probe
// bucket.
func (s *Store) Sharded() bool { return s.sharder != nil }

// ProbeScratch carries a caller's reusable probe buffers: candidate
// ids, shard signatures, and per-probe group boundaries. A zero value
// is ready to use; after the first probe the buffers are warm and
// subsequent probes through the same scratch allocate nothing. A
// ProbeScratch must not be shared between concurrent Match callers —
// keep one per worker.
type ProbeScratch struct {
	ids  []int
	sigs []uint64
	// ends[j] is the end offset in ids of probe group j: candidates
	// are collected per probe signature (per index for unsharded
	// stores), and the speculative commit needs to know which group a
	// hit came from.
	ends []int
}

// matchViewProbes is the number of probe groups a MatchView can track
// inline: exactly what the built-in sharders need (SortedSID probes
// forward and reversed; Normalization one signature), keeping the
// view — one per point in a sweep's plan — small. An exotic index
// exceeding it marks the view overflowed, and a speculative commit
// falls back to a full re-match.
const matchViewProbes = 2

// MatchView records what a match observed: the signatures it probed,
// the insertion epoch of each probed shard, and how many candidates
// survived the accept filter and reached mapping discovery, per probe
// group and in total. Callers count their probes from it, and a
// speculative commit loop uses it to decide in O(1) whether the
// speculation still reflects the store (ViewCurrent) and, if not, to
// replay only the candidates the speculation never saw — new
// insertions append to probe buckets, so the speculation's scan is a
// per-bucket prefix of the commit-time scan.
type MatchView struct {
	sigs    [matchViewProbes]uint64
	epochs  [matchViewProbes]uint64
	scanned [matchViewProbes]uint32
	total   uint32
	nprobes int8
	hit     int8
	flags   uint8
}

const (
	// viewStatic marks a miss decided from the probe fingerprint alone
	// (length mismatch, constant probe under a class that rejects
	// constants): no index state was consulted, so the outcome can
	// never be invalidated.
	viewStatic = 1 << iota
	// viewOverflow marks a probe with more signatures than the view
	// tracks; commit must re-match from scratch.
	viewOverflow
)

// Probes returns the number of probe groups the view tracks.
func (v *MatchView) Probes() int { return int(v.nprobes) }

// Sig returns probe group j's signature (meaningless for unsharded
// stores, which have a single untagged group).
func (v *MatchView) Sig(j int) uint64 { return v.sigs[j] }

// ScannedIn returns the number of candidates in probe group j that
// reached mapping discovery during the speculation — all of which
// failed, except the last one of the hit group.
func (v *MatchView) ScannedIn(j int) int { return int(v.scanned[j]) }

// ScannedTotal returns the number of mapping-discovery attempts the
// match made (the CandidatesScanned statistic), over every probe
// group — including groups beyond the view's capacity.
func (v *MatchView) ScannedTotal() int64 { return int64(v.total) }

// HitProbe returns the probe group the hit came from, or -1 for a
// miss (or a hit in a group beyond the view's capacity).
func (v *MatchView) HitProbe() int { return int(v.hit) }

// Static reports whether the outcome was decided without consulting
// the index (see viewStatic); such an outcome commits verbatim.
func (v *MatchView) Static() bool { return v.flags&viewStatic != 0 }

// Overflow reports whether the probe exceeded the view's capacity;
// the speculation is then unusable and commit must re-match.
func (v *MatchView) Overflow() bool { return v.flags&viewOverflow != 0 }

// ViewCurrent reports whether every shard the view's probes touched
// is still at the epoch the speculative match observed. True means no
// basis has been inserted into any probed shard since: the candidate
// lists are bit-identical to what the speculation scanned, so its
// outcome (and per-group scan counts) are exactly what a fresh match
// would produce now. Static views are always current; overflowed
// views never are.
func (s *Store) ViewCurrent(v *MatchView) bool {
	if v.flags&viewStatic != 0 {
		return true
	}
	if v.flags&viewOverflow != 0 {
		return false
	}
	if s.sharder == nil {
		return s.shards[0].epoch.Load() == v.epochs[0]
	}
	for j := 0; j < int(v.nprobes); j++ {
		if s.shardFor(v.sigs[j]).epoch.Load() != v.epochs[j] {
			return false
		}
	}
	return true
}

// Match searches for a basis distribution whose fingerprint the
// mapping class maps onto fp (the candidate-pruning and FindMapping
// loop of Algorithm 3). The returned mapping satisfies
// mapping.Apply(basis.Fingerprint[k]) ≈ fp[k] for all k. ok=false
// means the caller must run the full simulation and Add the result as
// a new basis.
//
// Every argument after fp is optional (nil):
//
//   - accept filters candidates before mapping discovery; a rejected
//     basis is skipped (not scanned, not returned) rather than ending
//     the search. The Monte Carlo engine uses it to step over bases
//     whose payloads a concurrent — or cancelled — sweep never
//     finished filling in, so an abandoned registration costs one
//     redundant simulation instead of shadowing its fingerprint
//     family forever. nil accepts every basis.
//   - scratch supplies caller-owned probe buffers, making the
//     steady-state probe allocation-free; nil uses local buffers (one
//     allocation per probe with candidates).
//   - view records what the probe observed: the probed signatures,
//     each probed shard's insertion epoch and the per-group scan
//     counts. It is how a caller accounts for the probe (the store
//     keeps no query counters) and how a speculative caller
//     revalidates the outcome later with ViewCurrent: if the probed
//     shards' epochs are unchanged, (basis, mapping, ok) is exactly
//     what Match would return at that moment; if not, the candidates
//     appended to the probed buckets since — and only those — must be
//     replayed, in probe-group order, with earlier groups'
//     appendices taking precedence over a later group's hit.
//
// For that replay to be exact, accept must be stable for the bases
// that existed at probe time — a basis it rejects must stay rejected;
// the engine's payload-readiness filter is stable in any single
// sweep. Under concurrent foreign writers an unstable accept costs at
// most a missed reuse (a redundant simulation), never a wrong answer.
func (s *Store) Match(fp Fingerprint, accept func(*Basis) bool, scratch *ProbeScratch, view *MatchView) (basis *Basis, mapping Mapping, ok bool) {
	if view == nil {
		view = &MatchView{}
	}
	*view = MatchView{hit: -1}
	s.mu.RLock()
	fpLen := s.fpLen
	s.mu.RUnlock()
	if fpLen != 0 && len(fp) != fpLen {
		view.flags |= viewStatic
		return nil, nil, false
	}
	// A constant probe cannot match under a class that rejects
	// constants; skip the candidate scan (boolean-output models
	// produce mostly constant fingerprints, which would otherwise
	// pile into one bucket and turn every probe into a full scan).
	if !s.class.CanMatchConstants() && fp.IsConstant(s.tol) {
		view.flags |= viewStatic
		return nil, nil, false
	}
	if scratch == nil {
		scratch = &ProbeScratch{}
	}

	// Collect candidate ids per probe group — one group per probe
	// signature, or the whole index for unsharded stores — then
	// resolve them against one snapshot of the basis list. Every id in
	// an index was appended to bases before its Insert (program order
	// in Add), and the shard lock's release/acquire pairing publishes
	// that append, so every candidate id resolves in the snapshot.
	// Shard epochs are read under the same RLock as the candidate
	// fetch, so a view's (epoch, candidates) pair is consistent.
	ids := scratch.ids[:0]
	ends := scratch.ends[:0]
	nprobes := 0
	if s.sharder == nil {
		sh := &s.shards[0]
		sh.mu.RLock()
		view.epochs[0] = sh.epoch.Load()
		ids = sh.index.Candidates(fp, ids)
		sh.mu.RUnlock()
		ends = append(ends, len(ids))
		nprobes = 1
	} else {
		sigs := s.sharder.ProbeSignatures(fp, scratch.sigs[:0])
		scratch.sigs = sigs
		for _, sig := range sigs {
			sh := s.shardFor(sig)
			sh.mu.RLock()
			epoch := sh.epoch.Load()
			ids = sh.sharder.SigCandidates(sig, ids)
			sh.mu.RUnlock()
			if nprobes < matchViewProbes {
				view.sigs[nprobes] = sig
				view.epochs[nprobes] = epoch
			}
			ends = append(ends, len(ids))
			nprobes++
		}
		if nprobes > matchViewProbes {
			view.flags |= viewOverflow
			nprobes = matchViewProbes
		}
	}
	scratch.ids = ids
	scratch.ends = ends
	view.nprobes = int8(nprobes)
	if len(ids) == 0 {
		return nil, nil, false
	}

	s.mu.RLock()
	bases := s.bases[:len(s.bases):len(s.bases)]
	s.mu.RUnlock()
	lo := 0
	for j, end := range ends {
		group := uint32(0)
		for _, id := range ids[lo:end] {
			if id < 0 || id >= len(bases) {
				continue
			}
			b := bases[id]
			if accept != nil && !accept(b) {
				continue
			}
			group++
			view.total++
			if m, found := s.class.Find(b.Fingerprint, fp, s.tol); found {
				if j < matchViewProbes {
					view.scanned[j] = group
					view.hit = int8(j)
				}
				return b, m, true
			}
		}
		if j < matchViewProbes {
			view.scanned[j] = group
		}
		lo = end
	}
	return nil, nil, false
}
