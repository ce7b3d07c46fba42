// Package join holds the types of the paper's joining problem: a sliding
// equijoin of two discrete-time streams through a fixed-size tuple cache, with
// a pluggable replacement policy and MAX-subset accounting. At every time step
// one tuple arrives from each stream, joins against the cached tuples of the
// other stream, and then the policy chooses which tuples to discard so that
// the cache stays within its budget. The loop that steps it is the operator
// in internal/engine: engine.Run simulates a run and returns a Result.
package join

import (
	"stochstream/internal/core"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// Tuple is a stream tuple held in (or arriving at) the cache.
type Tuple struct {
	ID      int           // unique within a run, in arrival order
	Value   int           // join attribute value
	Stream  core.StreamID // which stream produced it
	Arrived int           // arrival time step
}

// Config describes one simulation run.
type Config struct {
	// CacheSize is the number of tuples the cache can hold. Must be >= 1.
	CacheSize int
	// Window enables sliding-window semantics when > 0: a cached tuple can
	// only join arrivals within Window steps of its own arrival
	// (Section 7). 0 means regular join semantics.
	Window int
	// Band generalizes the equijoin to a band join when > 0: tuples match
	// when their join-attribute values differ by at most Band (the paper's
	// Section 8 non-equality-join extension). 0 means equijoin.
	Band int
	// Warmup is the number of initial steps whose results are excluded from
	// Result.Joins (the paper uses at least 4× the cache size). Negative
	// means "use 4 × CacheSize".
	Warmup int
	// Procs optionally carries the stochastic models of the two streams for
	// model-driven policies (HEEB, FlowExpect). Model-free policies ignore
	// it.
	Procs [2]process.Process
	// TrackOccupancy records the fraction of cache slots holding R tuples
	// at every step (Figures 14, 17, 18).
	TrackOccupancy bool
}

// EffectiveWarmup resolves the warm-up period.
func (c Config) EffectiveWarmup() int {
	if c.Warmup >= 0 {
		return c.Warmup
	}
	return 4 * c.CacheSize
}

// State is the read view handed to policies when they decide replacements.
type State struct {
	// Time is the current step t0; arrivals at Time are already part of the
	// histories.
	Time int
	// Hists are the observed histories of streams R and S through Time.
	Hists [2]*process.History
	// Config echoes the run configuration.
	Config Config
}

// Procs returns the stream models from the configuration.
func (st *State) Procs() [2]process.Process { return st.Config.Procs }

// Policy decides which tuples to discard when the cache overflows.
type Policy interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// Reset prepares the policy for a new run.
	Reset(cfg Config, rng *stats.RNG)
	// Evict returns the indices (into candidates) of tuples to discard —
	// exactly n of them, unless the policy also implements EagerEvictor, in
	// which case it may return more (never fewer). candidates holds the
	// current cache contents followed by the new arrivals. The cached part
	// is a set: a position carries no meaning (internal/engine lists its
	// cache by slot, not by age), so a policy that orders candidates breaks
	// ties on Tuple.ID, as evictLowest in internal/policy does, and its
	// choice is then the same set of tuples under any listing.
	//
	// candidates may be the operator's live cache itself (internal/engine
	// hands it over without a copy), so it is read-only, valid for this call
	// only, and never retained: a policy that needs a tuple later copies the
	// value; one that writes an element corrupts the operator (the engine's
	// CheckInvariants reports it). Its capacity equals its length, so append
	// copies. The returned indices stay the policy's: the caller reads them
	// before its next Evict call and never writes them, so a policy may
	// reuse one buffer across calls.
	Evict(st *State, candidates []Tuple, n int) []int
}

// Scorer is implemented by policies that decide by comparing one score per
// candidate (HEEB's H_x values, FlowExpect's expected arc benefits). Scores
// returns the scores the last Evict compared, indexed like its candidates.
// The slice is the policy's and valid until its next Evict; reading it
// changes nothing, so a decision trace records what was decided and never
// computes it a second time.
type Scorer interface {
	Scores() []float64
}

// ArrivalObserver is implemented by policies that keep more of the streams'
// past than State.Hists does (a count and the last value each): PROB and
// LIFE's value frequencies. The operator calls ObserveArrivals once a step,
// after the histories have taken the step's two arrivals and before any Evict
// of that step. What an observer accumulates is decision state: it implements
// StateSnapshotter too.
type ArrivalObserver interface {
	ObserveArrivals(r, s int)
}

// StateSnapshotter is implemented by policies whose decision state cannot be
// re-derived from State.Hists — private RNG streams, adaptive parameter
// trackers, PROB/LIFE frequency counts. The engine's checkpoint captures this
// state so a restored operator replays the exact decision sequence of an
// uninterrupted run, and two snapshots of one state are the same bytes (state
// held in a map is written in key order). What a policy rebuilds on demand from
// State.Hists and the models (FlowExpect's memo, HEEB's forecast window) needs
// no snapshot.
type StateSnapshotter interface {
	// SnapshotState serializes the policy's decision state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the policy's decision state with a snapshot
	// taken from an identically configured policy. On error the policy may
	// be left partially restored and must be Reset before further use.
	RestoreState(data []byte) error
}

// EagerEvictor marks policies whose Evict must be invoked at every step,
// even when the cache is not overflowing, and which may discard more tuples
// than strictly required. The caching→joining reduction adapter uses it to
// drop reference-stream tuples and expired supply tuples immediately, as a
// "reasonable policy" in the sense of Theorem 1 must.
type EagerEvictor interface {
	EagerEvict()
}

// Result summarizes one run.
type Result struct {
	// Joins is the number of result tuples produced after the warm-up
	// period — the paper's performance metric.
	Joins int
	// TotalJoins counts all result tuples including warm-up.
	TotalJoins int
	// OccupancyR[t] is the fraction of occupied cache slots holding R
	// tuples at step t (only if Config.TrackOccupancy).
	OccupancyR []float64
	// Evictions counts policy-initiated evictions.
	Evictions int
}
