// Package jigsaw is a Go reproduction of "Jigsaw: Efficient
// Optimization Over Uncertain Enterprise Data" (Kennedy & Nath, SIGMOD
// 2011): a probabilistic-database-based simulation framework that
// evaluates parameterized what-if scenarios over stochastic black-box
// models and uses fingerprinting to reuse Monte Carlo work across
// parameter values.
//
// The package is a facade over the implementation packages:
//
//   - Black-box models (VG-functions) and the paper's model suite
//     (internal/blackbox)
//   - Fingerprints, mapping functions, indexes, basis store
//     (internal/core — the paper's §3)
//   - The Monte Carlo engine with fingerprint reuse (internal/mc)
//   - Markov chains and the MarkovJump algorithm (internal/markov, §4)
//   - The MCDB-style PDB substrate (internal/pdb, §2.1)
//   - The Jigsaw SQL dialect (internal/sqlparse, Figs. 1 & 5)
//   - Scenario compilation and execution (internal/exec)
//   - Batch optimization (internal/optimize) and the interactive
//     what-if engine (internal/interactive, §5)
//
// # Quick start
//
//	demand := jigsaw.BoxFunc{
//		FuncName: "Demand", NArgs: 1,
//		Fn: func(args []float64, r *jigsaw.Rand) float64 {
//			return r.Normal(args[0], 0.1*args[0]+1)
//		},
//	}
//	eval, _ := jigsaw.BindBox(demand, "week")
//	eng, _ := jigsaw.NewEngine(jigsaw.EngineOptions{Samples: 1000, Reuse: true})
//	week, _ := jigsaw.RangeParam("week", 0, 52, 1)
//	space, _ := jigsaw.NewSpace(week)
//	results, stats, _ := eng.Sweep(eval, space)
//
// # Concurrency
//
// Sweeps parallelize across parameter points: set
// EngineOptions.Workers (0 = all cores) and Engine.Sweep and
// Engine.SweepBatch spread the points over a worker pool while
// returning results bit-identical for every worker count, equal to
// evaluating the points one by one with Engine.EvaluatePoint. Every call returns its own SweepStats (sum
// several with SweepStats.Add); the engine keeps no running counters.
// The basis store is guarded by one read-write lock, so engines may
// also be shared between goroutines calling EvaluatePoint. A point's
// own samples draw on one goroutine, in a sweep, in a lone
// EvaluatePoint and in an interactive session's ticks alike.
// DESIGN.md ("Concurrency model") describes the sweep's phases and the
// determinism argument.
//
// See examples/ for complete programs, DESIGN.md for the architecture,
// and EXPERIMENTS.md for the reproduced evaluation.
package jigsaw

import (
	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/exec"
	"jigsaw/internal/interactive"
	"jigsaw/internal/markov"
	"jigsaw/internal/mc"
	"jigsaw/internal/optimize"
	"jigsaw/internal/param"
	"jigsaw/internal/pdb"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
	"jigsaw/internal/stats"
)

// ---------- Randomness ----------

// Rand is the deterministic generator black boxes draw from; all
// model randomness must come from it (§3.1).
type Rand = rng.Rand

// NewRand returns a generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// ---------- Black boxes ----------

type (
	// Box is a stochastic black-box function (VG-function).
	Box = blackbox.Box
	// BoxFunc adapts a plain function to Box.
	BoxFunc = blackbox.Func
	// Registry resolves box names for SQL queries.
	Registry = blackbox.Registry
	// User is a row of the synthetic per-user dataset.
	User = blackbox.User
)

// NewRegistry returns an empty box registry.
func NewRegistry() *Registry { return blackbox.NewRegistry() }

// Stock models of the paper's Fig. 6.
var (
	// NewDemandModel is Algorithm 1 (linearly growing Gaussian demand).
	NewDemandModel = blackbox.NewDemand
	// NewCapacityModel simulates purchases coming online after
	// exponential delays.
	NewCapacityModel = blackbox.NewCapacity
	// NewOverloadModel is the boolean composition of demand and
	// capacity.
	NewOverloadModel = blackbox.NewOverload
	// NewUserSelectionModel is the data-dependent per-user usage model.
	NewUserSelectionModel = blackbox.NewUserSelection
	// NewSynthBasisModel has a deterministic number of basis
	// distributions.
	NewSynthBasisModel = blackbox.NewSynthBasis
	// NewMarkovBranchModel is the diverging synthetic chain step.
	NewMarkovBranchModel = blackbox.NewMarkovBranch
	// GenerateUsers builds a deterministic synthetic user dataset.
	GenerateUsers = blackbox.GenerateUsers
)

// ---------- Parameters ----------

type (
	// Point is one parameter valuation.
	Point = param.Point
	// ParamDecl is a declared parameter (RANGE/SET/CHAIN).
	ParamDecl = param.Decl
	// Space is the cartesian product of parameter domains.
	Space = param.Space
)

// RangeParam declares RANGE lo TO hi STEP BY step.
func RangeParam(name string, lo, hi, step float64) (ParamDecl, error) {
	return param.Range(name, lo, hi, step)
}

// SetParam declares SET (values...).
func SetParam(name string, values ...float64) (ParamDecl, error) {
	return param.Set(name, values...)
}

// ChainParam declares CHAIN column FROM @driver : @driver+offset
// INITIAL VALUE initial (Fig. 5).
func ChainParam(name, column, driver string, offset, initial float64) (ParamDecl, error) {
	return param.Chain(name, column, driver, offset, initial)
}

// NewSpace builds a parameter space from declarations.
func NewSpace(decls ...ParamDecl) (*Space, error) { return param.NewSpace(decls...) }

// ---------- Fingerprints (the paper's §3) ----------

type (
	// Fingerprint is a black box's output vector under the global
	// seed set.
	Fingerprint = core.Fingerprint
	// LinearMapping is the mapping M(x) = αx + β between output
	// distributions.
	LinearMapping = core.Linear
	// LinearMappingClass discovers linear mappings between
	// fingerprints (the paper's Algorithm 2); its zero value is the
	// default.
	LinearMappingClass = core.LinearClass
	// BasisStore holds basis distributions and answers match queries
	// (Algorithm 3).
	BasisStore = core.Store
	// FingerprintIndex prunes basis candidates (§3.2).
	FingerprintIndex = core.Index
)

// ComputeFingerprint evaluates f under the m global seeds σ0 … σm−1
// of master: its fingerprint, the first m simulation rounds.
func ComputeFingerprint(f func(seed uint64) float64, master uint64, m int) Fingerprint {
	return core.Compute(f, master, m)
}

// NewBasisStore builds a basis store with the given class and index
// (a nil index and a non-positive tol select the defaults).
func NewBasisStore(class LinearMappingClass, index FingerprintIndex, tol float64) *BasisStore {
	return core.NewStore(class, index, tol)
}

// Index constructors for the three §3.2 strategies.
var (
	// NewArrayIndex scans every basis (the baseline).
	NewArrayIndex = core.NewArrayIndex
	// NewNormalizationIndex hashes affine normal forms.
	NewNormalizationIndex = core.NewNormalizationIndex
	// NewSortedSIDIndex hashes sorted sample-identifier sequences.
	NewSortedSIDIndex = core.NewSortedSIDIndex
)

// ---------- Statistics ----------

type (
	// Summary holds the estimator outputs for a distribution.
	Summary = stats.Summary
	// Accumulator ingests samples incrementally.
	Accumulator = stats.Accumulator
)

// NewAccumulator returns a sample accumulator.
func NewAccumulator() *Accumulator { return stats.NewAccumulator() }

// ---------- Monte Carlo engine ----------

type (
	// Engine is the Monte Carlo engine with fingerprint reuse (the
	// dashed box of Fig. 3). Its Sweep and SweepBatch
	// methods evaluate parameter points on a worker pool sized by
	// EngineOptions.Workers, deterministically: results are
	// bit-identical for every worker count.
	Engine = mc.Engine
	// EngineOptions configures an Engine. Its MasterSeed names the
	// samples: sample id is seeded by σ_id of MasterSeed, the seed
	// ComputeFingerprint gives round id. With Reuse,
	// ValidationSamples validates every match, whatever KeepSamples
	// says.
	EngineOptions = mc.Options
	// PointEval is a stochastic model at a parameter point, the
	// engine's one evaluator contract: the engine and interactive
	// sessions bind a point once (BindPoint) and draw its samples in
	// blocks of sample ids under one master seed (EvalBlockBound),
	// each sample writing one value per output; Sweep, SweepBatch and
	// EvaluatePoint read output 0. BindBox builds one from any Box, a
	// BoxFunc included.
	PointEval = mc.PointEval
	// PointResult is the engine's per-point answer.
	PointResult = mc.PointResult
	// SweepStats reports one engine call's reuse accounting.
	SweepStats = mc.SweepStats
	// IndexKind selects the fingerprint index strategy.
	IndexKind = mc.IndexKind
)

// Index strategy constants.
const (
	IndexArray         = mc.IndexArray
	IndexNormalization = mc.IndexNormalization
	IndexSortedSID     = mc.IndexSortedSID
)

// NewEngine builds a Monte Carlo engine.
func NewEngine(opts EngineOptions) (*Engine, error) { return mc.New(opts) }

// BindBox adapts a Box to a PointEval by binding its positional
// arguments to named parameters.
func BindBox(b Box, argNames ...string) (PointEval, error) { return mc.BindBox(b, argNames...) }

// ---------- Markov processes (§4) ----------

type (
	// Chain is a Markov process evaluated in discrete steps.
	Chain = markov.Chain
	// ChainState is one instance's state vector.
	ChainState = markov.State
	// FuncChain adapts closures to Chain.
	FuncChain = markov.FuncChain
	// JumpOptions configures chain evaluation.
	JumpOptions = markov.JumpOptions
	// JumpStats reports chain evaluation work.
	JumpStats = markov.JumpStats
)

// MarkovJump evaluates a chain with Algorithm 4 (estimator synthesis,
// exponential skip, binary-search backtrack).
func MarkovJump(c Chain, target int, opts JumpOptions) ([]ChainState, JumpStats, error) {
	return markov.Jump(c, target, opts)
}

// MarkovNaive advances every instance through every step — the
// baseline of Fig. 12.
func MarkovNaive(c Chain, target int, opts JumpOptions) ([]ChainState, JumpStats, error) {
	return markov.NaiveEvaluate(c, target, opts)
}

// ChainOutputs extracts the scalar outputs of a state set.
func ChainOutputs(c Chain, states []ChainState) []float64 { return markov.Outputs(c, states) }

// Stock chains.
var (
	// NewBranchChain wraps the MarkovBranch model (Fig. 12 workload).
	NewBranchChain = markov.NewBranchChain
	// NewEventChain has perfectly correlated discontinuities, the
	// structure §4 motivates.
	NewEventChain = markov.NewEventChain
	// NewDemandReleaseChain is the Fig. 5 demand/release cycle.
	NewDemandReleaseChain = markov.NewDemandReleaseChain
)

// ---------- SQL dialect ----------

type (
	// Script is a parsed Jigsaw scenario file.
	Script = sqlparse.Script
	// OptimizeStmt is the batch-mode statement.
	OptimizeStmt = sqlparse.OptimizeStmt
	// GraphStmt is the interactive-mode statement.
	GraphStmt = sqlparse.GraphStmt
)

// Parse parses a Jigsaw script (DECLARE PARAMETER / SELECT ... INTO /
// OPTIMIZE / GRAPH; see Figs. 1 and 5 of the paper).
func Parse(src string) (*Script, error) { return sqlparse.Parse(src) }

// ---------- Scenario execution ----------

type (
	// Scenario is a compiled SELECT ... INTO definition.
	Scenario = exec.Scenario
	// ScenarioChain adapts a CHAIN scenario to the Markov engine.
	ScenarioChain = exec.ScenarioChain
	// GraphResult is an evaluated GRAPH statement.
	GraphResult = exec.GraphResult
	// GraphSeries is one plotted series.
	GraphSeries = exec.Series
	// OptimizeResult is the outcome of an OPTIMIZE statement.
	OptimizeResult = optimize.Result
)

// Compile compiles a parsed script against a registry.
func Compile(script *Script, boxes *Registry) (*Scenario, error) {
	return exec.CompileScenario(script, boxes)
}

// Optimize runs the script's OPTIMIZE statement (Fig. 1 batch mode).
func Optimize(s *Scenario, stmt *OptimizeStmt, opts EngineOptions) (*OptimizeResult, error) {
	return optimize.Run(s, stmt, opts)
}

// Graph runs a GRAPH statement, sweeping the Over parameter with the
// remaining parameters fixed.
func Graph(s *Scenario, stmt *GraphStmt, fixed Point, opts EngineOptions) (*GraphResult, error) {
	return exec.RunGraph(s, stmt, fixed, opts)
}

// NewScenarioChain builds the Markov chain of a CHAIN scenario
// (Fig. 5).
func NewScenarioChain(s *Scenario, outputCol string, fixed Point) (*ScenarioChain, error) {
	return exec.NewScenarioChain(s, outputCol, fixed)
}

// ---------- PDB substrate ----------

type (
	// DB is the MCDB-style probabilistic database.
	DB = pdb.DB
	// PDBTable is a materialized relation.
	PDBTable = pdb.Table
	// PDBRow is one tuple.
	PDBRow = pdb.Row
	// PDBValue is one cell.
	PDBValue = pdb.Value
	// PDBPlan is a relational operator tree.
	PDBPlan = pdb.Plan
	// Distribution is a PDB query answer (a distribution over result
	// tables).
	Distribution = pdb.Distribution
	// WorldsOptions configures Monte Carlo query execution.
	WorldsOptions = pdb.WorldsOptions
)

// NewDB returns an empty probabilistic database.
func NewDB() *DB { return pdb.NewDB() }

// NewPDBTable builds an empty table with the given columns.
func NewPDBTable(cols ...string) (*PDBTable, error) { return pdb.NewTable(cols...) }

// PDB value constructors.
var (
	// PDBFloat wraps a float value.
	PDBFloat = pdb.Float
	// PDBBool wraps a boolean value.
	PDBBool = pdb.Bool
	// PDBString wraps a string value.
	PDBString = pdb.Str
	// PDBNull is the NULL value.
	PDBNull = pdb.Null
)

// BuildPDBPlan lowers a script's SELECT onto the PDB substrate; use
// script.Selects[i] to pick the statement.
func BuildPDBPlan(stmt *sqlparse.SelectStmt, db *DB) (PDBPlan, error) {
	return exec.BuildPDBPlan(stmt, db)
}

// RunDistribution executes a plan across sampled worlds in
// world-blocked columnar form (see WorldsOptions.BlockWorlds and
// Workers); results are bit-identical across worker counts.
func RunDistribution(plan PDBPlan, params map[string]float64, opts WorldsOptions) (*Distribution, error) {
	return pdb.RunDistribution(plan, params, opts)
}

// ---------- Interactive mode (§5) ----------

type (
	// Session is an online what-if exploration session.
	Session = interactive.Session
	// SessionOptions configures a Session.
	SessionOptions = interactive.Options
	// SessionTask identifies refinement/validation/exploration ticks.
	SessionTask = interactive.Task
)

// NewSession builds an interactive session over one scenario column.
func NewSession(eval PointEval, space *Space, opts SessionOptions) (*Session, error) {
	return interactive.NewSession(eval, space, opts)
}
