package core

// SortedSIDIndex implements the second indexing strategy of §3.2,
// usable when the mapping class admits no normal form but is monotone:
// assign each fingerprint entry its sample identifier (its position),
// sort the entries by value, and use the resulting SID sequence as the
// hash key. A monotonically increasing mapping preserves the sort
// order, so mappable fingerprints share a key; because the linear
// class also admits decreasing mappings (α < 0), the lookup probes the
// reversed sequence too, per the paper's "comparing both the SID
// sequence and its inverse".
//
// Keys are 64-bit FNV-1a hashes over the tie-grouped SID sequence —
// computed into a stack buffer, so probes allocate nothing.
//
// Ties are the failure mode of SID indexing: equal values sort into an
// arbitrary SID order that a mapping need not preserve. Entries are
// therefore grouped: ApproxEqual values share a tie group, and groups
// are hashed as sorted SID clusters so any tie-permutation yields the
// same key.
type SortedSIDIndex struct {
	buckets map[uint64][]int
	n       int
}

// NewSortedSIDIndex returns an empty Sorted-SID index.
func NewSortedSIDIndex() *SortedSIDIndex {
	return &SortedSIDIndex{buckets: make(map[uint64][]int)}
}

// Insert implements Index.
func (s *SortedSIDIndex) Insert(id int, fp Fingerprint) {
	key := s.key(fp, false)
	s.buckets[key] = append(s.buckets[key], id)
	s.n++
}

// Candidates implements Index. A fingerprint whose forward and
// reversed keys coincide (a palindromic tie structure, e.g. a constant
// fingerprint) names the same bucket twice; the second probe is
// skipped so the store never validates the same basis twice.
func (s *SortedSIDIndex) Candidates(fp Fingerprint, buf []int) []int {
	fwd := s.key(fp, false)
	buf = append(buf, s.buckets[fwd]...)
	if rev := s.key(fp, true); rev != fwd {
		buf = append(buf, s.buckets[rev]...)
	}
	return buf
}

// Len implements Index.
func (s *SortedSIDIndex) Len() int { return s.n }

// Name implements Index.
func (s *SortedSIDIndex) Name() string { return "SortedSID" }

// sidStackLen is the fingerprint length up to which key computation
// runs entirely on the stack. Fingerprints are short (the paper uses
// m = 10); longer ones fall back to a heap scratch.
const sidStackLen = 64

// sidGroupSep is the word folded into the hash between tie groups. It
// is not a representable SID, so a separator can never be mistaken for
// a group member (e.g. [a][59,b] vs [a,59][b]).
const sidGroupSep = ^uint64(0)

// key hashes the tie-grouped SID sequence of fp; reversed flips the
// sort direction, producing the key a decreasing mapping would have
// produced.
func (s *SortedSIDIndex) key(fp Fingerprint, reversed bool) uint64 {
	var stack [sidStackLen]int
	var sids []int
	if len(fp) <= sidStackLen {
		sids = stack[:len(fp)]
	} else {
		sids = make([]int, len(fp))
	}
	for i := range sids {
		sids[i] = i
	}
	// Stable insertion sort by value: fingerprints are short, and the
	// stability keeps equal values in SID order for the grouping pass.
	for i := 1; i < len(sids); i++ {
		for j := i; j > 0; j-- {
			a, b := fp[sids[j-1]], fp[sids[j]]
			if (!reversed && b < a) || (reversed && b > a) {
				sids[j-1], sids[j] = sids[j], sids[j-1]
			} else {
				break
			}
		}
	}

	h := uint64(fnvOffset64)
	lo := 0
	for i := 1; i <= len(sids); i++ {
		if i < len(sids) && ApproxEqual(fp[sids[i]], fp[sids[i-1]]) {
			continue
		}
		// Tie group [lo, i): hash its SIDs in ascending order so any
		// tie-permutation yields the same key.
		group := sids[lo:i]
		for j := 1; j < len(group); j++ {
			for k := j; k > 0 && group[k] < group[k-1]; k-- {
				group[k-1], group[k] = group[k], group[k-1]
			}
		}
		for _, sid := range group {
			h = fnvWord(h, uint64(sid))
		}
		h = fnvWord(h, sidGroupSep)
		lo = i
	}
	return h
}
