// Package stochstream is a library for joining and caching stochastic data
// streams under limited cache memory, reproducing "On Joining and Caching
// Stochastic Streams" (Xie, Yang, Chen). It provides:
//
//   - stream models (stationary, linear trend with bounded noise, random
//     walks, AR(1)) with Δ-step conditional forecasting;
//   - the paper's framework of expected cumulative benefit (ECB) functions
//     and dominance tests that certify provably optimal replacement
//     decisions;
//   - the HEEB replacement heuristic with pluggable survival estimates
//     (Lfixed, Linf, Linv, Lexp) and its efficient implementations
//     (time-incremental updates, value-incremental transfer, precomputed
//     h1 curves and h2 surfaces with spline/bicubic approximation);
//   - the FlowExpect min-cost-flow algorithm (with a windowed variant) and
//     the offline optimum OPT-offline, whose schedule is replayable as a
//     clairvoyant policy;
//   - joining and caching simulators with the classic policies (RAND, PROB,
//     LIFE, reservoir sampling, LRU, LFU, LRU-k, LFD, Ao) for comparison;
//   - the paper's future-work extensions: sliding windows, band
//     (non-equality) joins, multi-way joins sharing one cache, adaptive α,
//     and automatic model detection from observed prefixes;
//   - an online operator (NewOperator) that emits actual joined pairs, for
//     embedding in a stream system;
//   - experiment harnesses regenerating every figure of the paper's
//     evaluation plus ablations, with table/CSV/ASCII-chart output.
//
// The facade below re-exports the stable API surface from the internal
// packages; see the examples/ directory and docs/paper-map.md for
// end-to-end usage and the section-by-section mapping to the paper.
package stochstream

import (
	"stochstream/internal/cachepolicy"
	"stochstream/internal/cachesim"
	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/experiment"
	"stochstream/internal/interp"
	"stochstream/internal/join"
	"stochstream/internal/mincostflow"
	"stochstream/internal/modelsel"
	"stochstream/internal/multijoin"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
	"stochstream/internal/workload"
)

// Distributions (see internal/dist).
type (
	// PMF is a probability mass function over the integers.
	PMF = dist.PMF
	// Table is an explicit finite PMF.
	Table = dist.Table
)

// Distribution constructors.
var (
	// NewUniform returns the discrete uniform distribution on [lo, hi].
	NewUniform = dist.NewUniform
	// BoundedNormal returns a zero-mean discretized normal truncated to
	// [-bound, bound].
	BoundedNormal = dist.BoundedNormal
	// NewTable builds an explicit PMF from weights.
	NewTable = dist.NewTable
	// Empirical builds the frequency histogram of observed values.
	Empirical = dist.Empirical
)

// Stream models (see internal/process).
type (
	// Process is a stochastic stream model with conditional forecasting.
	Process = process.Process
	// History is the observed prefix of a stream.
	History = process.History
	// Stationary produces i.i.d. values from one distribution.
	Stationary = process.Stationary
	// LinearTrend is X_t = Slope·t + Intercept + noise.
	LinearTrend = process.LinearTrend
	// RandomWalk accumulates i.i.d. integer steps.
	RandomWalk = process.RandomWalk
	// GaussianWalk is a random walk with drift and normal steps.
	GaussianWalk = process.GaussianWalk
	// AR1 is the first-order autoregressive model.
	AR1 = process.AR1
	// Deterministic replays a known sequence (offline streams).
	Deterministic = process.Deterministic
	// MarkovChain is a finite-state first-order Markov model.
	MarkovChain = process.MarkovChain
	// GeneralTrend is X_t = F(t) + noise for an arbitrary trend function.
	GeneralTrend = process.GeneralTrend
)

// Process constructors and history helpers.
var (
	// NewHistory returns a history pre-populated with observations.
	NewHistory = process.NewHistory
	// NewMarkovChain validates a transition matrix and builds the model.
	NewMarkovChain = process.NewMarkovChain
	// MarkovFirstPassageH is HEEB's exact first-reference score for finite
	// Markov reference streams.
	MarkovFirstPassageH = core.MarkovFirstPassageH
)

// Core framework (see internal/core).
type (
	// ECB is an expected cumulative benefit function (Section 4.1).
	ECB = core.ECB
	// LFunc estimates the probability a tuple stays cached (Section 4.3).
	LFunc = core.LFunc
	// LExp is e^{-Δt/α}, the paper's survival estimate of choice.
	LExp = core.LExp
	// LFixed is 1 up to a fixed horizon and 0 after.
	LFixed = core.LFixed
	// LInf is constant 1 (caching only).
	LInf = core.LInf
	// LInv is 1/Δt (caching only).
	LInv = core.LInv
	// LWindow clips an inner L to sliding-window semantics.
	LWindow = core.LWindow
	// StreamID identifies one of the two joined streams.
	StreamID = core.StreamID
	// H1 is a precomputed random-walk HEEB curve (Theorem 5).
	H1 = core.H1
	// H2 is a precomputed AR(1) HEEB surface (Theorem 5).
	H2 = core.H2
)

// The two streams of a binary join.
const (
	StreamR = core.StreamR
	StreamS = core.StreamS
)

// Core framework functions.
var (
	// JoinECB computes a candidate tuple's ECB against its partner stream
	// (Lemma 1).
	JoinECB = core.JoinECB
	// CacheECB computes a database tuple's ECB under an independent
	// reference stream (Corollary 1).
	CacheECB = core.CacheECB
	// Dominates reports ECB dominance (Section 4.2).
	Dominates = core.Dominates
	// StronglyDominates reports strict ECB dominance.
	StronglyDominates = core.StronglyDominates
	// DominatedSubset extracts a provably-discardable subset (Corollary 2).
	DominatedSubset = core.DominatedSubset
	// JoinH scores a candidate with HEEB for the joining problem.
	JoinH = core.JoinH
	// CacheH scores a database tuple with HEEB for the caching problem.
	CacheH = core.CacheH
	// MarginalH is the Theorem 5 marginal HEEB score for Markov streams.
	MarginalH = core.MarginalH
	// PrecomputeH1 tabulates h1 for a drifted random walk (Theorem 5(2)).
	PrecomputeH1 = core.PrecomputeH1
	// PrecomputeH2 tabulates h2 for an AR(1) stream (Theorem 5(1)).
	PrecomputeH2 = core.PrecomputeH2
	// OptOfflineJoin computes the MAX-subset offline optimum.
	OptOfflineJoin = core.OptOfflineJoin
)

// Joining simulation (see internal/join and internal/policy).
type (
	// JoinConfig configures a joining run.
	JoinConfig = join.Config
	// JoinPolicy is a replacement policy for the joining problem.
	JoinPolicy = join.Policy
	// JoinResult summarizes a joining run.
	JoinResult = join.Result
	// Tuple is a cached stream tuple.
	Tuple = join.Tuple
	// HEEBOptions configures the HEEB policy.
	HEEBOptions = policy.HEEBOptions
	// Lifetime estimates a tuple's remaining joinable steps.
	Lifetime = policy.Lifetime
	// RandPolicy discards random tuples (expired first).
	RandPolicy = policy.Rand
	// ProbPolicy discards the least historically frequent value.
	ProbPolicy = policy.Prob
	// LifePolicy weighs frequency by remaining lifetime.
	LifePolicy = policy.Life
	// ReservoirPolicy is the sampling comparator from the related work.
	ReservoirPolicy = policy.Reservoir
	// ClairvoyantPolicy replays the offline optimum's schedule.
	ClairvoyantPolicy = policy.Clairvoyant
	// FlowExpectPolicy is the Section 3 min-cost-flow algorithm.
	FlowExpectPolicy = policy.FlowExpect
)

// NewHEEB builds the paper's HEEB replacement policy.
var NewHEEB = policy.NewHEEB

// RunJoin simulates joining streams r and s under a policy, stepping the
// online operator (NewOperator) once per arrival pair.
func RunJoin(r, s []int, p JoinPolicy, cfg JoinConfig, seed uint64) JoinResult {
	return engine.Run(r, s, p, cfg, stats.NewRNG(seed))
}

// Caching simulation (see internal/cachesim and internal/cachepolicy).
type (
	// CachePolicy is a replacement policy for the caching problem.
	CachePolicy = cachesim.Policy
	// CacheConfig configures a caching run.
	CacheConfig = cachesim.Config
	// CacheResult summarizes a caching run.
	CacheResult = cachesim.Result
	// LRU evicts the least recently used value.
	LRU = cachepolicy.LRU
	// LFU evicts the least frequently used value (perfect counts).
	LFU = cachepolicy.LFU
	// LRUK is the LRU-k policy of O'Neil et al.
	LRUK = cachepolicy.LRUK
	// LFD is Belady's offline-optimal policy.
	LFD = cachepolicy.LFD
	// Ao is the model-based policy of Aho, Denning and Ullman.
	Ao = cachepolicy.Ao
	// CacheHEEB is HEEB applied to the caching problem.
	CacheHEEB = cachepolicy.HEEB
	// CacheRand evicts a random cached value.
	CacheRand = cachepolicy.Rand
)

// RunCache replays a reference sequence against a caching policy.
func RunCache(refs []int, p CachePolicy, cfg CacheConfig, seed uint64) CacheResult {
	return cachesim.Run(refs, p, cfg, stats.NewRNG(seed))
}

// ReduceCachingToJoining performs the Section 2 reduction (Theorem 1).
var ReduceCachingToJoining = cachesim.Reduce

// Statistics utilities (see internal/stats).
type (
	// RNG is the library's deterministic random source.
	RNG = stats.RNG
	// AR1Fit is a fitted AR(1) model.
	AR1Fit = stats.AR1Fit
)

// Statistics functions.
var (
	// NewRNG seeds a deterministic random source.
	NewRNG = stats.NewRNG
	// FitAR1 fits an AR(1) model by conditional maximum likelihood.
	FitAR1 = stats.FitAR1
	// FitAR1Int fits an AR(1) model to an integer series.
	FitAR1Int = stats.FitAR1Int
	// AlphaForLifetime derives Lexp's α from a mean tuple lifetime.
	AlphaForLifetime = stats.AlphaForLifetime
)

// Online operator (see internal/engine): a push-driven join operator that
// emits the actual result pairs — the adoption surface for embedding the
// framework in a stream system.
type (
	// Operator is the step-driven binary join operator.
	Operator = engine.Join
	// OperatorConfig configures an Operator.
	OperatorConfig = engine.Config
	// OperatorTuple is a keyed tuple with an opaque payload.
	OperatorTuple = engine.Tuple
	// OperatorPair is one emitted join result.
	OperatorPair = engine.Pair
	// OperatorMetrics snapshots the operator's counters.
	OperatorMetrics = engine.Metrics
)

// NewOperator builds an online join operator.
var NewOperator = engine.NewJoin

// Multi-way joins (see internal/multijoin): multiple binary equijoins over
// multiple streams sharing one cache, the appendix's extension.
type (
	// MultiJoinConfig describes a multi-join workload.
	MultiJoinConfig = multijoin.Config
	// MultiJoinEdge is one binary join between two streams.
	MultiJoinEdge = multijoin.Edge
	// MultiJoinPolicy decides evictions for the shared cache.
	MultiJoinPolicy = multijoin.Policy
	// MultiJoinResult summarizes a multi-join run.
	MultiJoinResult = multijoin.Result
	// MultiHEEB scores tuples by their summed per-partner HEEB scores.
	MultiHEEB = multijoin.HEEB
	// MultiRand is the random baseline for multi-joins.
	MultiRand = multijoin.Rand
	// MultiProb is the PROB heuristic summed over the join graph.
	MultiProb = multijoin.Prob
)

// RunMultiJoin simulates a multi-join workload.
func RunMultiJoin(streams [][]int, p MultiJoinPolicy, cfg MultiJoinConfig, seed uint64) (MultiJoinResult, error) {
	return multijoin.Run(streams, p, cfg, stats.NewRNG(seed))
}

// Band joins (the paper's non-equality-join extension): set
// JoinConfig.Band > 0, or use the band-aware core functions below.
var (
	// BandJoinECB generalizes Lemma 1 to band joins.
	BandJoinECB = core.BandJoinECB
	// BandJoinH generalizes HEEB's joining score to band joins.
	BandJoinH = core.BandJoinH
	// OptOfflineBandJoin is the offline optimum under a band join.
	OptOfflineBandJoin = core.OptOfflineBandJoin
)

// Model selection (see internal/modelsel): identify a stream's statistical
// properties from an observed prefix and obtain a fitted Process.
type (
	// ModelKind is a detected model class.
	ModelKind = modelsel.Kind
	// ModelReport is the outcome of model detection.
	ModelReport = modelsel.Report
	// ModelThresholds tunes the detection decision tree.
	ModelThresholds = modelsel.Thresholds
)

// Detected model classes.
const (
	ModelStationary  = modelsel.KindStationary
	ModelLinearTrend = modelsel.KindLinearTrend
	ModelRandomWalk  = modelsel.KindRandomWalk
	ModelAR1         = modelsel.KindAR1
)

// Model detection entry points.
var (
	// DetectModel identifies the model class of an observed series.
	DetectModel = modelsel.Detect
	// DetectModelWith runs detection with explicit thresholds.
	DetectModelWith = modelsel.DetectWith
)

// Workloads (see internal/workload).
type (
	// TrendSpec parameterizes a linear-trend joining workload.
	TrendSpec = workload.TrendSpec
	// JoinWorkload is a materialized joining workload.
	JoinWorkload = workload.JoinWorkload
	// RealWorkload is the REAL caching workload.
	RealWorkload = workload.RealWorkload
)

// Paper workload constructors.
var (
	// Tower is the TOWER configuration (sharp bounded normal noise).
	Tower = workload.Tower
	// Roof is the ROOF configuration (wide bounded normal noise).
	Roof = workload.Roof
	// Floor is the FLOOR configuration (bounded uniform noise).
	Floor = workload.Floor
	// Walk is the WALK configuration (two Gaussian random walks).
	Walk = workload.Walk
	// Real is the REAL caching workload specification.
	Real = workload.Real
)

// Experiments (see internal/experiment).
type (
	// ExperimentOptions controls experiment scale.
	ExperimentOptions = experiment.Options
	// FigureResult is a regenerated paper figure.
	FigureResult = experiment.Figure
)

// Experiment entry points.
var (
	// DefaultExperimentOptions returns interactive-scale options.
	DefaultExperimentOptions = experiment.Defaults
	// PaperScaleOptions returns the paper's full experiment scale.
	PaperScaleOptions = experiment.PaperScale
	// FigureIDs lists the regenerable figures.
	FigureIDs = experiment.IDs
)

// GenerateFigure regenerates the paper figure with the given id ("6".."19")
// and returns its data for rendering (FigureResult.Render for a text table,
// FigureResult.WriteCSV for CSV).
func GenerateFigure(id string, o ExperimentOptions) (*FigureResult, error) {
	gen, ok := experiment.Registry()[id]
	if !ok {
		return nil, &UnknownFigureError{ID: id}
	}
	return gen(o)
}

// UnknownFigureError reports a figure id outside the registry.
type UnknownFigureError struct{ ID string }

// Error implements error.
func (e *UnknownFigureError) Error() string {
	return "stochstream: unknown figure " + e.ID + " (valid: 6..19, a1, a2)"
}

// Telemetry (see internal/telemetry and docs/observability.md): counters,
// gauges, latency histograms with p50/p90/p99, a decision trace recording
// per-candidate policy scores at each eviction, and Prometheus/JSON/HTTP
// export surfaces.
type (
	// TelemetryRegistry holds named metrics and the decision trace.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is the point-in-time JSON export schema.
	TelemetrySnapshot = telemetry.Snapshot
	// DecisionRecord is one traced eviction with per-candidate scores.
	DecisionRecord = telemetry.DecisionRecord
	// TraceCandidate is one scored candidate inside a DecisionRecord.
	TraceCandidate = telemetry.TraceCandidate
)

// Telemetry entry points.
var (
	// Telemetry returns the process-wide registry.
	Telemetry = telemetry.Default
	// EnableTelemetry turns on process-wide instrumentation: every RunJoin
	// operator counts its steps, pairs, evictions and policy decisions,
	// traces sampled decisions with their candidate scores, and the
	// flow-solver counters are surfaced. Returns the registry.
	EnableTelemetry = telemetry.EnableGlobal
	// DisableTelemetry removes the process-wide hooks (collected metrics
	// stay readable).
	DisableTelemetry = telemetry.DisableGlobal
	// NewTelemetryRegistry builds a private registry for per-operator use
	// (OperatorConfig.Telemetry).
	NewTelemetryRegistry = telemetry.NewRegistry
)

// Interpolation and flow-solver access for advanced use.
type (
	// Spline is a natural cubic spline.
	Spline = interp.Spline
	// FlowGraph is a min-cost max-flow network.
	FlowGraph = mincostflow.Graph
)

// Advanced constructors.
var (
	// NewSpline fits a natural cubic spline.
	NewSpline = interp.NewSpline
	// NewFlowGraph builds an empty flow network.
	NewFlowGraph = mincostflow.New
)
