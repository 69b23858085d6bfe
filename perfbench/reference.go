package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"jigsaw/internal/core"
)

// Stored answers, one file per workload keyed by input seed, one entry
// for every input of the workload's corpus at its full size. Each holds
// the digest of the measured configuration's answer and how far that
// answer lies from the reference answer, computed with fingerprint reuse
// off (one worker for the PDB). Refresh them after a change meant to
// move answers with -write-ref.
//
//go:embed ref
var refFiles embed.FS

type stored struct {
	Answer string `json:"answer_sha256"`
	// AnswerErr is the answer's deviation from the reference in
	// tolerance units, as strconv formats it ("+Inf" when the exact
	// parts differ).
	AnswerErr string `json:"answer_err"`
	// Deviation says how the answer fails the reference comparison; it
	// is empty when the answer is within the tolerance.
	Deviation string `json:"deviation,omitempty"`
}

// newStored records answer a to an input and its comparison with the
// input's reference answer ref.
func newStored(a, ref *answer) stored {
	units, err := compare(a, ref)
	st := stored{Answer: a.valuesDigest(), AnswerErr: strconv.FormatFloat(units, 'g', -1, 64)}
	if err != nil {
		st.Deviation = err.Error()
	}
	return st
}

// check returns the stored comparison with the reference of the answer
// whose values digest is got, or an error when that answer is not the
// stored one.
func (st stored) check(got string) (units float64, deviation string, err error) {
	if got != st.Answer {
		return 0, "", fmt.Errorf("answer differs from the one stored for it (sha256 %.12s, want %.12s)", got, st.Answer)
	}
	if units, err = strconv.ParseFloat(st.AnswerErr, 64); err != nil {
		return 0, "", fmt.Errorf("stored answer_err: %w", err)
	}
	return units, st.Deviation, nil
}

func storedFor(workload string, seed uint64) (stored, bool, error) {
	refs, err := readStored(refFiles.ReadFile, "ref/"+workload+".json")
	if err != nil {
		return stored{}, false, err
	}
	s, ok := refs[strconv.FormatUint(seed, 10)]
	return s, ok, nil
}

func readStored(read func(string) ([]byte, error), path string) (map[string]stored, error) {
	data, err := read(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]stored{}, nil
	}
	if err != nil {
		return nil, err
	}
	var refs map[string]stored
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return refs, nil
}

// writeStored writes refs, keyed by input seed, to dir/<workload>.json.
func writeStored(dir, workload string, refs map[string]stored) error {
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), append(data, '\n'), 0o644)
}

// compare checks a against its reference answer: the exact part bit for
// bit, the approximate part within the mapping tolerance relative to
// 1+|ref|. It returns the largest deviation in tolerance units, infinite
// when the exact parts differ.
func compare(a, ref *answer) (float64, error) {
	if got, want := a.exactDigest(), ref.exactDigest(); got != want {
		return math.Inf(1), fmt.Errorf("exact values differ from the reference (sha256 %.12s, want %.12s)", got, want)
	}
	if len(a.approx) != len(ref.approx) {
		return math.Inf(1), fmt.Errorf("%d approximate values, the reference has %d", len(a.approx), len(ref.approx))
	}
	worst := 0.0
	for i, v := range a.approx {
		units := math.Abs(v-ref.approx[i]) / (core.DefaultTolerance * (1 + math.Abs(ref.approx[i])))
		if !(units <= worst) {
			worst = units
		}
	}
	if !(worst <= 1) {
		return worst, fmt.Errorf("values deviate from the reference by %.4g tolerance units", worst)
	}
	return worst, nil
}
