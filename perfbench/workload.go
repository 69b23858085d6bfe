package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"

	"jigsaw"
	"jigsaw/internal/blackbox"
)

//go:embed scripts
var scripts embed.FS

// size scales a workload: full is what the benchmark measures, tiny
// keeps the smoke test fast.
type size struct {
	samples    int // Monte Carlo samples per point, or PDB worlds
	users      int // generated users
	validation int // ValidationSamples of the scenario engines
}

// answerFunc produces one answer from the script text, parsing and
// compiling it afresh. ref selects the reference configuration:
// fingerprint reuse off for scenarios, one worker for the PDB.
type answerFunc func(src string, ref bool, rec *recorder) (*answer, error)

// wrapFunc is applied to every model as it is registered.
type wrapFunc func(blackbox.Box) blackbox.Box

func noWrap(b blackbox.Box) blackbox.Box { return b }

type workload struct {
	name   string
	script string // file under scripts/
	// A run answers inputs input seeds in turn, a window of its corpus
	// of input seeds 0..corpus-1 chosen by the run seed. The work of an
	// answer depends on its input seed (Fig. 1 stores 557 to 1195 bases
	// over seeds 0-15), so one input per run would make timings spread
	// with the seed rather than with the code. Every corpus input has a
	// stored answer (see reference.go).
	inputs, corpus int
	// strict workloads fail an answer that deviates from the reference
	// beyond the tolerance; the others only report the deviation.
	strict bool
	// rowModel is called once by every row evaluation, so its draws
	// count row evaluations.
	rowModel   string
	full, tiny size
	// setup builds what a long-lived process holds across answers: the
	// model registry, the generated data and the loaded DB.
	setup func(seed uint64, sz size, workers int, wrap wrapFunc) (answerFunc, error)
}

// inputSeed is the seed of a run's j-th input: run seeds s and s+1
// share all but one input.
func (w *workload) inputSeed(seed uint64, j int) uint64 {
	c := uint64(w.corpus)
	return (seed%c + uint64(j)) % c
}

// answer is one workload answer, reduced to what the check compares and
// the counts the traced run reports.
type answer struct {
	exact  []float64 // compared bit for bit with the reference
	approx []float64 // compared within the mapping tolerance
	stats  layerStats
}

// layerStats are the answer's work counts. They are deterministic, so
// they belong to the determinism digest.
type layerStats struct {
	Points   int // distinct parameter points; result rows for the PDB
	Worlds   int // samples per point, or PDB worlds
	MCPoints int // column-points swept by the engines
	FullSims int
	Reused   int
	Bases    int
	Queries  int
	Hits     int
	Scanned  int
	RowsOut  int
	Feasible int
}

// digest fingerprints everything the answer holds, counts included;
// the answers a run gives one input must share it.
func (a *answer) digest() string {
	h := sha256.New()
	writeFloats(h, a.exact, a.approx)
	fmt.Fprintf(h, "%+v", a.stats)
	return hex.EncodeToString(h.Sum(nil))
}

// valuesDigest fingerprints the answer's values.
func (a *answer) valuesDigest() string {
	h := sha256.New()
	writeFloats(h, a.exact, a.approx)
	return hex.EncodeToString(h.Sum(nil))
}

// exactDigest fingerprints the bit-exact part of the answer.
func (a *answer) exactDigest() string {
	h := sha256.New()
	writeFloats(h, a.exact)
	return hex.EncodeToString(h.Sum(nil))
}

func writeFloats(h hash.Hash, lists ...[]float64) {
	var buf [8]byte
	for _, xs := range lists {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
		h.Write(buf[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
}

var workloads = []*workload{
	{
		// Reuse moves both scenario answers beyond the tolerance on some
		// seeds (the §6.2 fingerprint false positive on the overload
		// indicator), so their deviation is reported, not failed.
		name: "fig1_optimize", script: "fig1_optimize.jsq", inputs: 8, corpus: 32, rowModel: "DemandModel",
		full:  size{samples: 1000, validation: 64},
		tiny:  size{samples: 100, validation: 16},
		setup: setupFig1,
	},
	{
		name: "graph_users", script: "graph_users.jsq", inputs: 4, corpus: 16, rowModel: "UserSelection",
		full:  size{samples: 1000, users: 200},
		tiny:  size{samples: 100, users: 20},
		setup: setupGraph,
	},
	{
		name: "pdb_users", script: "pdb_users.sql", inputs: 8, corpus: 32, strict: true, rowModel: "UserUsage",
		full:  size{samples: 1000, users: 2000},
		tiny:  size{samples: 100, users: 200},
		setup: setupPDB,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) source() (string, error) {
	src, err := scripts.ReadFile("scripts/" + w.script)
	return string(src), err
}

// cloudDemand is Demand scaled as in examples/cloudcapacity, so the
// forecast approaches cluster capacity within the planning year. With
// the stock scaling overload is always 0 and the Fig. 1 sweep collapses
// onto one basis.
func cloudDemand() *blackbox.Demand {
	d := jigsaw.NewDemandModel()
	d.BaseRate, d.BaseVarRate, d.FeatureRate, d.FeatureVarRate = 2.5, 1, 0.3, 0.3
	return d
}

func newRegistry(wrap wrapFunc, boxes ...blackbox.Box) (*jigsaw.Registry, error) {
	reg := jigsaw.NewRegistry()
	for _, b := range boxes {
		if err := reg.Register(wrap(b)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

func engineOptions(seed uint64, sz size, workers int, ref bool) jigsaw.EngineOptions {
	return jigsaw.EngineOptions{
		Samples:           sz.samples,
		FingerprintLen:    10,
		MasterSeed:        seed,
		Reuse:             !ref,
		Index:             jigsaw.IndexNormalization,
		KeepSamples:       sz.validation > 0,
		ValidationSamples: sz.validation,
		Workers:           workers,
	}
}

func parse(src string, rec *recorder) (*jigsaw.Script, error) {
	var script *jigsaw.Script
	err := rec.do(spanParse, "sqlparse.Parse", func() (err error) {
		script, err = jigsaw.Parse(src)
		return err
	})
	return script, err
}

func compileScenario(src string, reg *jigsaw.Registry, rec *recorder) (*jigsaw.Script, *jigsaw.Scenario, error) {
	script, err := parse(src, rec)
	if err != nil {
		return nil, nil, err
	}
	var scn *jigsaw.Scenario
	err = rec.do(spanCompile, "exec.CompileScenario", func() (err error) {
		scn, err = jigsaw.Compile(script, reg)
		return err
	})
	return script, scn, err
}

func setupFig1(seed uint64, sz size, workers int, wrap wrapFunc) (answerFunc, error) {
	reg, err := newRegistry(wrap, cloudDemand(), jigsaw.NewCapacityModel())
	if err != nil {
		return nil, err
	}
	return func(src string, ref bool, rec *recorder) (*answer, error) {
		script, scn, err := compileScenario(src, reg, rec)
		if err != nil {
			return nil, err
		}
		if script.Optimize == nil {
			return nil, errors.New("script has no OPTIMIZE statement")
		}
		var res *jigsaw.OptimizeResult
		err = rec.do(spanExecute, "optimize.Run", func() (err error) {
			res, err = jigsaw.Optimize(scn, script.Optimize, engineOptions(seed, sz, workers, ref))
			return err
		})
		if err != nil {
			return nil, err
		}
		a := &answer{approx: res.ConstraintValues, stats: layerStats{
			Points: scn.Space.Size(), Worlds: sz.samples,
			MCPoints: res.Stats.Points, FullSims: res.Stats.FullSimulations, Reused: res.Stats.Reused,
			Bases: res.Stats.Store.Bases, Queries: res.Stats.Store.Queries,
			Hits: res.Stats.Store.Hits, Scanned: res.Stats.Store.CandidatesScanned,
			Feasible: res.Feasible,
		}}
		if res.Chosen != nil {
			for _, p := range script.Optimize.Params {
				a.exact = append(a.exact, res.Chosen.MustGet(p))
			}
		}
		return a, nil
	}, nil
}

// graphFixed binds the parameters the GRAPH does not sweep.
var graphFixed = jigsaw.Point{"feature_release": 36}

func setupGraph(seed uint64, sz size, workers int, wrap wrapFunc) (answerFunc, error) {
	reg, err := newRegistry(wrap, cloudDemand(), jigsaw.NewUserSelectionModel(sz.users, seed))
	if err != nil {
		return nil, err
	}
	return func(src string, ref bool, rec *recorder) (*answer, error) {
		script, scn, err := compileScenario(src, reg, rec)
		if err != nil {
			return nil, err
		}
		if script.Graph == nil {
			return nil, errors.New("script has no GRAPH statement")
		}
		var res *jigsaw.GraphResult
		err = rec.do(spanExecute, "exec.RunGraph", func() (err error) {
			res, err = jigsaw.Graph(scn, script.Graph, graphFixed, engineOptions(seed, sz, workers, ref))
			return err
		})
		if err != nil {
			return nil, err
		}
		a := &answer{stats: layerStats{
			Points: len(res.Series[0].X), Worlds: sz.samples,
			MCPoints: res.Stats.Points, FullSims: res.Stats.FullSimulations, Reused: res.Stats.Reused,
		}}
		for _, s := range res.Series {
			a.approx = append(a.approx, s.Y...)
		}
		return a, nil
	}, nil
}

// pdbParams binds the query's parameters.
var pdbParams = map[string]float64{"current_week": 40}

func setupPDB(seed uint64, sz size, workers int, wrap wrapFunc) (answerFunc, error) {
	db := jigsaw.NewDB()
	if err := db.Boxes.Register(wrap(blackbox.UserUsage{})); err != nil {
		return nil, err
	}
	users, err := jigsaw.NewPDBTable("join_week", "base", "growth", "vol")
	if err != nil {
		return nil, err
	}
	for _, u := range jigsaw.GenerateUsers(sz.users, seed) {
		row := jigsaw.PDBRow{
			jigsaw.PDBFloat(u.JoinWeek), jigsaw.PDBFloat(u.BaseCores),
			jigsaw.PDBFloat(u.GrowthRate), jigsaw.PDBFloat(u.Volatility),
		}
		if err := users.Append(row); err != nil {
			return nil, err
		}
	}
	if err := db.CreateTable("users", users); err != nil {
		return nil, err
	}
	return func(src string, ref bool, rec *recorder) (*answer, error) {
		script, err := parse(src, rec)
		if err != nil {
			return nil, err
		}
		if len(script.Selects) != 1 {
			return nil, fmt.Errorf("script has %d SELECT statements, want 1", len(script.Selects))
		}
		var plan jigsaw.PDBPlan
		err = rec.do(spanCompile, "exec.BuildPDBPlan", func() (err error) {
			plan, err = jigsaw.BuildPDBPlan(script.Selects[0], db)
			return err
		})
		if err != nil {
			return nil, err
		}
		opts := jigsaw.WorldsOptions{Worlds: sz.samples, MasterSeed: seed, Workers: workers}
		if ref {
			opts.Workers = 1
		}
		var dist *jigsaw.Distribution
		err = rec.do(spanExecute, "pdb.RunDistribution", func() (err error) {
			dist, err = jigsaw.RunDistribution(plan, pdbParams, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		a := &answer{stats: layerStats{Points: dist.NumRows(), Worlds: dist.Worlds, RowsOut: dist.NumRows()}}
		for _, row := range dist.Cells {
			for _, c := range row {
				a.exact = append(a.exact, float64(c.N), c.Mean, c.StdDev, c.Min, c.Max)
			}
		}
		return a, nil
	}, nil
}
