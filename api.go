package hhoudini

import (
	"io"

	"hhoudini/internal/baseline"
	"hhoudini/internal/btor2"
	"hhoudini/internal/circuit"
	"hhoudini/internal/design"
	core "hhoudini/internal/hhoudini"
	"hhoudini/internal/isa"
	"hhoudini/internal/mc"
	"hhoudini/internal/miter"
	"hhoudini/internal/proofdb"
	"hhoudini/internal/sat"
	"hhoudini/internal/serve"
	"hhoudini/internal/veloct"
)

// --- Circuit substrate ------------------------------------------------------

// Circuit is a finalized synchronous circuit (the transition system).
type Circuit = circuit.Circuit

// CircuitBuilder constructs circuits with a word-level API.
type CircuitBuilder = circuit.Builder

// Signal is a boolean circuit signal; Word is a little-endian signal vector.
type (
	Signal = circuit.Signal
	Word   = circuit.Word
)

// Sim is a cycle-accurate simulator; Snapshot captures architectural state;
// Inputs drives input ports for one cycle.
type (
	Sim      = circuit.Sim
	Snapshot = circuit.Snapshot
	Inputs   = circuit.Inputs
)

// Encoder Tseitin-encodes circuit cones into a SAT solver.
type Encoder = circuit.Encoder

// NewCircuitBuilder returns an empty circuit builder.
func NewCircuitBuilder() *CircuitBuilder { return circuit.NewBuilder() }

// NewSim creates a simulator in the circuit's reset state.
func NewSim(c *Circuit) *Sim { return circuit.NewSim(c) }

// NewEncoder creates a CNF encoder targeting the given solver.
func NewEncoder(c *Circuit, s *SATSolver) *Encoder { return circuit.NewEncoder(c, s) }

// InitSnapshot returns the reset-state snapshot of a circuit.
func InitSnapshot(c *Circuit) Snapshot { return circuit.InitSnapshot(c) }

// VCDRecorder dumps simulation activity in the Value Change Dump waveform
// format (GTKWave-compatible).
type VCDRecorder = circuit.VCDRecorder

// NewVCDRecorder attaches a waveform recorder to a simulator.
func NewVCDRecorder(w io.Writer, sim *Sim, module string) (*VCDRecorder, error) {
	return circuit.NewVCDRecorder(w, sim, module)
}

// --- SAT solver ---------------------------------------------------------------

// SATSolver is the CDCL solver underlying every query.
type SATSolver = sat.Solver

// SATLit is a solver literal.
type SATLit = sat.Lit

// SAT verdicts.
const (
	SATSat   = sat.Sat
	SATUnsat = sat.Unsat
)

// NewSATSolver returns an empty solver.
func NewSATSolver() *SATSolver { return sat.New() }

// --- btor2 --------------------------------------------------------------------

// BTOR2Design is a parsed btor2 model.
type BTOR2Design = btor2.Design

// ParseBTOR2 reads a btor2 model into a circuit.
func ParseBTOR2(r io.Reader) (*BTOR2Design, error) { return btor2.Parse(r) }

// WriteBTOR2 exports a circuit to btor2; wires named in bads become bad
// properties and wires named in constraints become environment
// constraints.
func WriteBTOR2(w io.Writer, c *Circuit, bads, constraints []string) error {
	return btor2.Write(w, c, bads, constraints)
}

// --- Model checking ---------------------------------------------------------------

// MCTrace is a concrete counterexample trace from the model checker.
type MCTrace = mc.Trace

// BMC searches for a reachable bad state within maxSteps transitions,
// returning a counterexample trace or nil.
func BMC(c *Circuit, bad string, maxSteps int) (*MCTrace, error) { return mc.BMC(c, bad, maxSteps) }

// BMCUnder is BMC with environment constraints: each named 1-bit wire is
// assumed true at every step (btor2 "constraint" semantics).
func BMCUnder(c *Circuit, bad string, maxSteps int, constraints []string) (*MCTrace, error) {
	return mc.BMCUnder(c, bad, maxSteps, constraints)
}

// KInduction attempts to prove a bad wire unreachable by k-induction.
func KInduction(c *Circuit, bad string, k int) (bool, *MCTrace, error) {
	return mc.KInduction(c, bad, k)
}

// KInductionUnder is KInduction with environment constraints assumed at
// every step.
func KInductionUnder(c *Circuit, bad string, k int, constraints []string) (bool, *MCTrace, error) {
	return mc.KInductionUnder(c, bad, k, constraints)
}

// ReplayTrace re-simulates a counterexample trace and returns the final
// value of the named wire, validating the trace against the simulator.
func ReplayTrace(c *Circuit, tr *MCTrace, wire string) (uint64, error) {
	return mc.Replay(c, tr, wire)
}

// PDRResult is the outcome of an IC3/PDR run.
type PDRResult = mc.PDRResult

// PDR decides reachability of a bad wire with the IC3/PDR algorithm — the
// SAT-based incremental learner the paper contrasts H-Houdini against.
func PDR(c *Circuit, bad string, maxFrames int) (*PDRResult, error) {
	return mc.PDR(c, bad, maxFrames)
}

// PDRUnder is PDR with environment constraints assumed at every step.
func PDRUnder(c *Circuit, bad string, maxFrames int, constraints []string) (*PDRResult, error) {
	return mc.PDRUnder(c, bad, maxFrames, constraints)
}

// --- Miter ----------------------------------------------------------------------

// Miter is a product circuit for relational 2-safety verification.
type Miter = miter.Product

// BuildMiter constructs the product of a circuit with itself.
func BuildMiter(base *Circuit) (*Miter, error) { return miter.Build(base) }

// MiterLeft and MiterRight name the two copies of a base signal inside a
// product circuit.
var (
	MiterLeft  = miter.Left
	MiterRight = miter.Right
)

// --- ISA -------------------------------------------------------------------------

// ISAOp is an RV32 mnemonic.
type ISAOp = isa.Op

// ParseISAOp resolves a mnemonic such as "add".
func ParseISAOp(name string) (ISAOp, bool) { return isa.ParseOp(name) }

// AllISAOps lists every implemented mnemonic.
func AllISAOps() []ISAOp { return isa.AllOps() }

// --- Designs -----------------------------------------------------------------------

// Target couples a design with its analysis metadata.
type Target = design.Target

// ExecStageConfig parameterizes the Appendix C worked example.
type ExecStageConfig = design.ExecStageConfig

// OoOVariant selects a boom-class size configuration.
type OoOVariant = design.OoOVariant

// The four evaluated OoO variants.
var (
	SmallOoO  = design.SmallOoO
	MediumOoO = design.MediumOoO
	LargeOoO  = design.LargeOoO
	MegaOoO   = design.MegaOoO
)

// OoOVariants lists the OoO variants smallest-first.
func OoOVariants() []OoOVariant { return design.OoOVariants() }

// NewExecStage builds the Appendix C execute stage (ADD + zero-skip MUL).
func NewExecStage(cfg ExecStageConfig) (*Target, error) { return design.NewExecStage(cfg) }

// NewInOrder builds the rocket-class scalar in-order core.
func NewInOrder() (*Target, error) { return design.NewInOrder() }

// NewOoO builds a boom-class out-of-order core variant.
func NewOoO(v OoOVariant) (*Target, error) { return design.NewOoO(v) }

// --- H-Houdini learner ----------------------------------------------------------------

// Pred is a predicate over transition-system states.
type Pred = core.Pred

// System is a circuit plus an environment assumption on its inputs.
type System = core.System

// Learner runs the H-Houdini algorithm; Invariant is its result; Stats its
// instrumentation; LearnerOptions its tuning knobs.
type (
	Learner        = core.Learner
	Invariant      = core.Invariant
	Stats          = core.Stats
	LearnerOptions = core.Options
)

// MineOracle supplies candidate predicates per cone (Algorithm 2's role).
type MineOracle = core.MineOracle

// NewLearner builds an H-Houdini learner over a system and mining oracle.
func NewLearner(sys *System, mine MineOracle, opts LearnerOptions) *Learner {
	return core.NewLearner(sys, mine, opts)
}

// DefaultLearnerOptions mirror the paper's configuration.
func DefaultLearnerOptions() LearnerOptions { return core.DefaultOptions() }

// VerifyCache is the verification memo store, shared across Learner
// instances and keyed by cone fingerprint + environment-assumption key. Per
// target it keeps one monotone memo: proven abducts, each answering any
// query whose candidates contain it, and maximal candidate sets proven Sat,
// each answering "no abduct" for any subset of itself. Only answers live
// here — a learner's solvers last for one query.
type VerifyCache = core.VerifyCache

// NewVerifyCache returns an empty cache with default bounds. Pass it via
// LearnerOptions.Cache to isolate a workload from the shared process-global
// cache.
func NewVerifyCache() *VerifyCache { return core.NewVerifyCache() }

// SharedVerifyCache returns the process-global cache learners use when
// LearnerOptions.Cache is nil.
func SharedVerifyCache() *VerifyCache { return core.SharedCache() }

// --- Persistent proof store -------------------------------------------------

// A learner binds its cache to a versioned on-disk proof store through
// LearnerOptions.CacheDir: the first learner to name a directory opens the
// store (proof.db), and binding a cache restores the store's memos — proven
// abducts and Sat candidate sets, keyed by cone fingerprint and environment
// key — into it once. Each new answer is appended to the file once, as it
// lands, and made durable at Learn shutdown, so separate process
// invocations share warm starts. The store owns the file and every record;
// the cache holds a bounded working set of them. A record no query used
// for proofdb.DefaultMaxAge (two weeks) is evicted. Corrupt or
// version-mismatched stores are never an error — they load colder — and
// an unusable directory degrades to the in-memory cache alone.

// DefaultCacheDir is the conventional on-disk cache directory tools use
// when persistence is requested without an explicit path (.gitignored).
const DefaultCacheDir = proofdb.DefaultDir

// CloseProofDBs closes every proof store opened implicitly via
// LearnerOptions.CacheDir: one final rewrite each, which also records when
// restored answers were last used. Call it before process exit (each Learn
// already made its answers durable at shutdown, so this is a
// final-durability convenience, not a correctness requirement).
func CloseProofDBs() error { return core.CloseProofDBs() }

// Audit monolithically verifies a learned invariant (initiation,
// consecution, property) under a bounded consecution budget.
func Audit(sys *System, inv *Invariant) error { return core.Audit(sys, inv) }

// --- Baselines ------------------------------------------------------------------------

// BaselineOptions bound the monolithic baseline learners; BaselineStats
// collects their instrumentation.
type (
	BaselineOptions = baseline.Options
	BaselineStats   = baseline.Stats
)

// Houdini runs the classic monolithic MLIS learner.
func Houdini(sys *System, universe, targets []Pred, opts BaselineOptions, stats *BaselineStats) (*Invariant, error) {
	return baseline.Houdini(sys, universe, targets, opts, stats)
}

// Sorcar runs the property-directed monolithic learner (ConjunCT's basis).
func Sorcar(sys *System, universe, targets []Pred, opts BaselineOptions, stats *BaselineStats) (*Invariant, error) {
	return baseline.Sorcar(sys, universe, targets, opts, stats)
}

// --- VeloCT ---------------------------------------------------------------------------

// Analysis is a VeloCT run bound to one design; Result the outcome of one
// safe-set verification; Synthesis the outcome of safe-set synthesis.
type (
	Analysis        = veloct.Analysis
	AnalysisOptions = veloct.Options
	ExampleConfig   = veloct.ExampleConfig
	Result          = veloct.Result
	Synthesis       = veloct.Synthesis
)

// EqPred is VeloCT's relational equality predicate (§5.1.1).
type EqPred = veloct.EqPred

// NewAnalysis builds a VeloCT analysis for a target design.
func NewAnalysis(tgt *Target, opts AnalysisOptions) (*Analysis, error) {
	return veloct.New(tgt, opts)
}

// DefaultAnalysisOptions mirror the paper's configuration.
func DefaultAnalysisOptions() AnalysisOptions { return veloct.DefaultOptions() }

// --- Service layer --------------------------------------------------------------------

// Server is the multi-tenant invariant-learning service core behind
// cmd/veloctd: a bounded fair-share job queue in front of a worker-pool
// executor, every job under its own deadline context, tenant-namespaced
// cache keys, and a graceful Drain. ServerConfig tunes it; JobSpec and
// JobView are its JSON wire types.
type (
	Server       = serve.Server
	ServerConfig = serve.Config
	JobSpec      = serve.JobSpec
	JobView      = serve.JobView
)

// NewServer builds a service core and starts its executor pool. Expose it
// over HTTP with Server.Handler; stop it with Server.Drain.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }
