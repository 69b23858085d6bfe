package core

// Index accelerates the search for candidate basis fingerprints (§3.2).
// The contract mirrors the paper's: Candidates must return a superset
// of the basis ids whose fingerprints the mapping class can map onto
// the probe (no false negatives); false positives are permitted and
// discarded by FindMapping during match confirmation (Algorithm 3).
type Index interface {
	// Insert registers a basis fingerprint under id.
	Insert(id int, fp Fingerprint)
	// Candidates appends the ids possibly similar to the probe to buf
	// and returns the extended slice. Ids within a bucket must come
	// back in insertion order, and buckets in a fixed probe order:
	// Store.Match reuses the first candidate that maps, so this order
	// decides which basis a point reuses, and a sweep's results are
	// reproducible only if it depends on nothing but the insertion
	// history. Implementations must not retain buf; callers reuse it
	// across probes, so a steady-state probe performs no allocation.
	Candidates(fp Fingerprint, buf []int) []int
	// Len returns the number of indexed fingerprints.
	Len() int
	// Name identifies the strategy in experiment output.
	Name() string
}

// The hash indexes key their buckets with 64-bit FNV-1a hashes built
// directly from the quantized binary form of the fingerprint — no
// string rendering, no allocation. A hash collision merges two
// buckets, which only adds false candidates for FindMapping to
// discard; it never loses a true candidate, so the §3.2
// no-false-negatives contract holds.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds one 64-bit word into an FNV-1a hash, byte by byte.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}

// ArrayIndex is the naive strategy: scan every basis distribution. It
// is the baseline the two real indexes are measured against in
// Figures 10 and 11.
type ArrayIndex struct {
	ids []int
}

// NewArrayIndex returns an empty array index.
func NewArrayIndex() *ArrayIndex { return &ArrayIndex{} }

// Insert implements Index.
func (a *ArrayIndex) Insert(id int, _ Fingerprint) { a.ids = append(a.ids, id) }

// Candidates implements Index: every basis is a candidate.
func (a *ArrayIndex) Candidates(_ Fingerprint, buf []int) []int {
	return append(buf, a.ids...)
}

// Len implements Index.
func (a *ArrayIndex) Len() int { return len(a.ids) }

// Name implements Index.
func (a *ArrayIndex) Name() string { return "Array" }
