package core

import "math"

// NormalizationIndex implements the first indexing strategy of §3.2:
// translate each fingerprint to a normal form such that two linearly
// mappable fingerprints share the same normal form, then look matches
// up with a single hash probe.
//
// The normal form takes the first two distinct sample values and
// applies the affine map sending them to 0 and 1. For any fingerprint
// θ' = αθ + β (α ≠ 0) the distinct-value positions are preserved, and
//
//	(θ'[k] − θ'[i]) / (θ'[j] − θ'[i]) = (θ[k] − θ[i]) / (θ[j] − θ[i])
//
// so all entries of the normal forms coincide — for increasing and
// decreasing α alike.
//
// Bucket keys are 64-bit FNV-1a hashes over the normal form quantized
// to normDigits significant decimal digits — a binary encoding,
// computed without allocating. Quantization tolerates the
// floating-point rounding inherent in "exact" affine reuse; a value
// landing on a quantization boundary can still produce a missed
// lookup, which costs a redundant simulation but never a wrong answer
// (the store only returns validated mappings).
type NormalizationIndex struct {
	buckets map[uint64][]int
	n       int
}

// normDigits is the number of significant decimal digits normal-form
// entries are quantized to: far coarser than the 1e-9 validation
// tolerance, so the rounding noise of an affine image rarely crosses
// a quantization boundary.
const normDigits = 6

// NewNormalizationIndex returns an empty normalization index.
func NewNormalizationIndex() *NormalizationIndex {
	return &NormalizationIndex{buckets: make(map[uint64][]int)}
}

// Insert implements Index.
func (n *NormalizationIndex) Insert(id int, fp Fingerprint) {
	key := n.key(fp)
	n.buckets[key] = append(n.buckets[key], id)
	n.n++
}

// Candidates implements Index.
func (n *NormalizationIndex) Candidates(fp Fingerprint, buf []int) []int {
	return append(buf, n.buckets[n.key(fp)]...)
}

// Len implements Index.
func (n *NormalizationIndex) Len() int { return n.n }

// Name implements Index.
func (n *NormalizationIndex) Name() string { return "Normalization" }

// Key tags distinguishing the two fingerprint shapes, folded into the
// hash first so a constant fingerprint can never collide with a
// normal-form one by value alone.
const (
	normKeyConst  = 0xC0
	normKeyVector = 0x4E
)

// key computes the hash key of fp's normal form. Constant fingerprints
// are keyed by their value: identical constants (the only constants a
// sound mapping class can relate) share a bucket, while distinct
// constants — e.g. the all-zeros and all-ones seas of a boolean model —
// stay apart instead of piling into one bucket.
func (n *NormalizationIndex) key(fp Fingerprint) uint64 {
	i, j, ok := fp.FirstTwoDistinct()
	if !ok {
		v := 0.0
		if len(fp) > 0 {
			v = fp[0]
		}
		return hashQuantized(fnvWord(fnvOffset64, normKeyConst), v)
	}
	base := fp[i]
	span := fp[j] - fp[i]
	h := fnvWord(fnvOffset64, normKeyVector)
	for _, v := range fp {
		h = hashQuantized(h, (v-base)/span)
	}
	return h
}

// hashQuantized folds x quantized to normDigits significant decimal
// digits into the hash, as a (mantissa, exponent) pair of
// words. Negative zero and (sub)normal dust collapse to zero so values
// that are zero for all practical purposes share a key — the binary
// equivalent of rendering with strconv.FormatFloat(x, 'e', normDigits-1)
// and hashing the string, at no allocation.
func hashQuantized(h uint64, x float64) uint64 {
	mant, exp := quantize(x)
	return fnvWord(fnvWord(h, uint64(mant)), uint64(int64(exp)))
}

// quantize reduces x to an integer decimal mantissa of normDigits
// significant digits and a base-10 exponent. Values within half an ulp
// of the decimal grid land on the same pair, so near-equal normal-form
// entries share hash keys. Non-finite values are mapped to sentinel
// pairs (their raw bits) — deterministic, if meaningless, keys.
func quantize(x float64) (mant int64, exp int) {
	if math.Abs(x) < 1e-300 {
		return 0, 0
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return int64(math.Float64bits(x)), math.MaxInt32
	}
	exp = int(math.Floor(math.Log10(math.Abs(x))))
	m := math.Round(x * math.Pow(10, float64(normDigits-1-exp)))
	// Rounding can push the mantissa to 10^normDigits (e.g. 0.9999995);
	// renormalize so every value has a canonical pair.
	if limit := math.Pow(10, normDigits); m >= limit || m <= -limit {
		m /= 10
		exp++
	}
	return int64(m), exp
}
