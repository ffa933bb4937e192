package hhoudini

import (
	"io"

	"hhoudini/internal/aiger"
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

// Encoder Tseitin-encodes circuit cones into a SAT solver; EncoderStats
// counts the encode work it has performed (gates, clauses, memo hits).
type (
	Encoder      = circuit.Encoder
	EncoderStats = circuit.EncoderStats
)

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

// SATLit is a solver literal; SATStatus is a solve verdict.
type (
	SATLit    = sat.Lit
	SATStatus = sat.Status
)

// SAT verdicts.
const (
	SATUnknown = sat.Unknown
	SATSat     = sat.Sat
	SATUnsat   = sat.Unsat
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

// --- AIGER ------------------------------------------------------------------------

// AIGERDesign is a parsed ASCII AIGER model.
type AIGERDesign = aiger.Design

// ParseAIGER reads an ASCII AIGER ("aag") model into a circuit.
func ParseAIGER(r io.Reader) (*AIGERDesign, error) { return aiger.Parse(r) }

// WriteAIGER exports a circuit as ASCII AIGER; wires named in bads become
// bad-state properties.
func WriteAIGER(w io.Writer, c *Circuit, bads []string) error { return aiger.Write(w, c, bads) }

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

// ISAOp is an RV32 mnemonic; ISAInstr a decoded instruction; MaskMatch an
// InSafeSet pattern.
type (
	ISAOp     = isa.Op
	ISAInstr  = isa.Instr
	MaskMatch = isa.MaskMatch
)

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

// StatsSnapshot is an atomically-consistent copy of a Stats, safe to read
// while the learner that owns the Stats is still running (Stats.Snapshot).
type StatsSnapshot = core.StatsSnapshot

// MineOracle supplies candidate predicates per cone (Algorithm 2's role).
type MineOracle = core.MineOracle

// NewLearner builds an H-Houdini learner over a system and mining oracle.
func NewLearner(sys *System, mine MineOracle, opts LearnerOptions) *Learner {
	return core.NewLearner(sys, mine, opts)
}

// DefaultLearnerOptions mirror the paper's configuration.
func DefaultLearnerOptions() LearnerOptions { return core.DefaultOptions() }

// VerifyCache is the verification memo store: abduction verdicts and proven
// abducts shared across Learner instances, keyed by cone fingerprint +
// environment-assumption key. Only answers live here — a learner's solvers
// last for one Learn. CacheCounters snapshots its effectiveness counters.
type (
	VerifyCache   = core.VerifyCache
	CacheCounters = core.CacheCounters
)

// NewVerifyCache returns an empty cache with default bounds. Pass it via
// LearnerOptions.Cache to isolate a workload from the shared process-global
// cache.
func NewVerifyCache() *VerifyCache { return core.NewVerifyCache() }

// SharedVerifyCache returns the process-global cache learners use when
// LearnerOptions.Cache is nil.
func SharedVerifyCache() *VerifyCache { return core.SharedCache() }

// --- Persistent proof store -------------------------------------------------

// ProofDB binds a verification cache to a versioned on-disk proof store
// (abduction verdicts and abducts, keyed by cone fingerprint and
// environment key) so separate process invocations share warm starts.
// ProofDBConfig configures the binding (staleness bound, byte budget,
// appends); ProofStoreOptions and ProofStoreStats are
// the underlying store's tuning knobs and counters; ProofSnapshot is the
// portable exchange form between cache and store.
type (
	ProofDB           = core.ProofDB
	ProofDBConfig     = core.ProofDBConfig
	ProofStoreOptions = proofdb.Options
	ProofStoreStats   = proofdb.Stats
	ProofSnapshot     = proofdb.Snapshot
)

// DefaultCacheDir is the conventional on-disk cache directory tools use
// when persistence is requested without an explicit path (.gitignored).
const DefaultCacheDir = proofdb.DefaultDir

// OpenProofDB opens (creating if needed) the proof store in dir, restores
// its contents into vc, and returns the binding; Flush/Close persist the
// cache back with crash-safe atomic rewrites. Corrupt or version-mismatched
// stores are never an error — they load colder (see ProofStoreStats).
//
// For embedded use, LearnerOptions.CacheDir performs the same binding
// implicitly (with a flush at every Learn shutdown); CloseProofDBs is the
// matching process-exit hook.
func OpenProofDB(dir string, vc *VerifyCache, cfg ProofDBConfig) (*ProofDB, error) {
	return core.OpenProofDB(dir, vc, cfg)
}

// CloseProofDBs flushes and closes every proof store opened implicitly via
// LearnerOptions.CacheDir. Call it before process exit (each Learn already
// flushed at shutdown, so this is a final-durability convenience, not a
// correctness requirement).
func CloseProofDBs() error { return core.CloseProofDBs() }

// Audit monolithically verifies a learned invariant (initiation,
// consecution, property). Its consecution query runs under
// DefaultAuditConflicts; AuditBudget chooses the budget explicitly.
func Audit(sys *System, inv *Invariant) error { return core.Audit(sys, inv) }

// AuditBudget is Audit with an explicit conflict budget on the consecution
// query (<= 0 solves unbounded); exhaustion returns an error wrapping
// ErrBudgetExceeded.
func AuditBudget(sys *System, inv *Invariant, conflicts int64) error {
	return core.AuditBudget(sys, inv, conflicts)
}

// DefaultAuditConflicts is Audit's default consecution budget.
const DefaultAuditConflicts = core.DefaultAuditConflicts

// --- Robustness ---------------------------------------------------------------

// ErrBudgetExceeded is the typed verdict for a solver query abandoned at
// its conflict-budget cap (LearnerOptions.MaxSolverConflicts, AuditBudget).
// Test with errors.Is; a budget exhaustion is a resource verdict, never a
// soundness one, so retrying with a larger budget is always legitimate.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// PanicError reports a panic captured at a learner worker's recover
// boundary: the Learn fails with this stack-carrying error while the
// process survives.
type PanicError = core.PanicError

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
	PredMiner       = veloct.Miner
)

// VeloCT relational predicate forms (§5.1.1).
type (
	EqPred         = veloct.EqPred
	EqConstPred    = veloct.EqConstPred
	EqConstSetPred = veloct.EqConstSetPred
	InSafeSetPred  = veloct.InSafeSetPred
)

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
// cache keys, and a graceful Drain. ServerConfig tunes it; JobSpec /
// JobView / JobServerStats are its JSON wire types.
type (
	Server         = serve.Server
	ServerConfig   = serve.Config
	JobSpec        = serve.JobSpec
	JobView        = serve.JobView
	JobResult      = serve.JobResult
	JobStatsView   = serve.StatsView
	JobServerStats = serve.ServerStats
)

// Job kinds and terminal/lifecycle states on the service wire.
const (
	JobKindLearn      = serve.KindLearn
	JobKindVerify     = serve.KindVerify
	JobKindSynthesize = serve.KindSynthesize

	JobStateQueued   = serve.StateQueued
	JobStateRunning  = serve.StateRunning
	JobStateDone     = serve.StateDone
	JobStateFailed   = serve.StateFailed
	JobStateCanceled = serve.StateCanceled
)

// NewServer builds a service core and starts its executor pool. Expose it
// over HTTP with Server.Handler; stop it with Server.Drain.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }
