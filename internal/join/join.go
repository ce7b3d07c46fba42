// Package join simulates the paper's joining problem: a sliding equijoin of
// two discrete-time streams through a fixed-size tuple cache, with a
// pluggable replacement policy and MAX-subset accounting. At every time step
// one tuple arrives from each stream, joins against the cached tuples of the
// other stream, and then the policy chooses which tuples to discard so that
// the cache stays within its budget.
package join

import (
	"fmt"
	"sync/atomic"
	"time"

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
	// RNG is the policy's private randomness source for this run.
	RNG *stats.RNG
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

// Observer receives run-time signals from Run. It exists so the telemetry
// layer can watch every simulation in the process (experiment harnesses build
// their configs internally, so per-run plumbing is not an option) without
// this package importing it.
type Observer interface {
	// WrapPolicy may replace the policy before a run starts (the telemetry
	// implementation wraps it with latency and decision instrumentation).
	WrapPolicy(p Policy) Policy
	// ObserveStep is called once per simulated step with the step's latency
	// and the result/eviction counts it produced.
	ObserveStep(latencyNs int64, results, evictions int)
}

// observer is the process-wide Run observer; nil means no instrumentation
// and costs a single atomic load per run (not per step).
var observer atomic.Pointer[Observer]

// SetObserver installs (or, with nil, removes) the process-wide Run
// observer. telemetry.EnableGlobal is the usual caller.
func SetObserver(o Observer) {
	if o == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&o)
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

// Run simulates joining streams r and s (r[t], s[t] arrive at step t) under
// the policy p. It panics if the policy returns an invalid eviction set,
// since that is a programming error in the policy, not an input error.
func Run(r, s []int, p Policy, cfg Config, rng *stats.RNG) Result {
	if len(r) != len(s) {
		panic("join: streams must have equal length")
	}
	if cfg.CacheSize < 1 {
		panic("join: cache size must be >= 1")
	}
	arrivals, _ := p.(ArrivalObserver)
	var obs Observer
	if ptr := observer.Load(); ptr != nil {
		obs = *ptr
		p = obs.WrapPolicy(p)
	}
	p.Reset(cfg, rng)

	warmup := cfg.EffectiveWarmup()
	hists := [2]*process.History{process.NewHistory(), process.NewHistory()}
	st := &State{Hists: hists, Config: cfg, RNG: rng}
	cache := make([]Tuple, 0, cfg.CacheSize)
	var res Result
	if cfg.TrackOccupancy {
		res.OccupancyR = make([]float64, 0, len(r))
	}
	nextID := 0
	newTuple := func(v int, sID core.StreamID, t int) Tuple {
		tp := Tuple{ID: nextID, Value: v, Stream: sID, Arrived: t}
		nextID++
		return tp
	}

	for t := 0; t < len(r); t++ {
		var stepStart time.Time
		if obs != nil {
			stepStart = time.Now()
		}
		stepEvictions := 0
		newR := newTuple(r[t], core.StreamR, t)
		newS := newTuple(s[t], core.StreamS, t)
		hists[core.StreamR].Append(newR.Value)
		hists[core.StreamS].Append(newS.Value)
		if arrivals != nil {
			arrivals.ObserveArrivals(newR.Value, newS.Value)
		}
		st.Time = t

		// Join the arrivals against the cached tuples of the other stream.
		// Same-time arrivals join regardless of replacement decisions, so
		// (like the paper) they are not counted.
		joins := 0
		matches := func(a, b int) bool {
			if a == process.NoValue || b == process.NoValue {
				return false
			}
			d := a - b
			if d < 0 {
				d = -d
			}
			return d <= cfg.Band
		}
		for _, c := range cache {
			if cfg.Window > 0 && t-c.Arrived > cfg.Window {
				continue
			}
			switch c.Stream {
			case core.StreamR:
				if matches(c.Value, newS.Value) {
					joins++
				}
			case core.StreamS:
				if matches(c.Value, newR.Value) {
					joins++
				}
			}
		}
		res.TotalJoins += joins
		if t >= warmup {
			res.Joins += joins
		}

		// Replacement: candidates are the cache plus the two arrivals.
		candidates := append(append(make([]Tuple, 0, len(cache)+2), cache...), newR, newS)
		need := len(candidates) - cfg.CacheSize
		_, eager := p.(EagerEvictor)
		if need <= 0 && !eager {
			cache = candidates
		} else {
			if need < 0 {
				need = 0
			}
			evict := p.Evict(st, candidates, need)
			validateEviction(p, evict, len(candidates), need, eager)
			res.Evictions += len(evict)
			stepEvictions = len(evict)
			drop := make(map[int]bool, len(evict))
			for _, i := range evict {
				drop[i] = true
			}
			cache = cache[:0]
			for i, c := range candidates {
				if !drop[i] {
					cache = append(cache, c)
				}
			}
		}

		if cfg.TrackOccupancy {
			nr := 0
			for _, c := range cache {
				if c.Stream == core.StreamR {
					nr++
				}
			}
			frac := 0.0
			if len(cache) > 0 {
				frac = float64(nr) / float64(len(cache))
			}
			res.OccupancyR = append(res.OccupancyR, frac)
		}

		if obs != nil {
			obs.ObserveStep(time.Since(stepStart).Nanoseconds(), joins, stepEvictions)
		}
	}
	return res
}

func validateEviction(p Policy, evict []int, nCands, need int, eager bool) {
	if len(evict) != need && !(eager && len(evict) > need) {
		panic(fmt.Sprintf("join: policy %s returned %d evictions, need %d", p.Name(), len(evict), need))
	}
	seen := make(map[int]bool, need)
	for _, i := range evict {
		if i < 0 || i >= nCands {
			panic(fmt.Sprintf("join: policy %s returned out-of-range index %d", p.Name(), i))
		}
		if seen[i] {
			panic(fmt.Sprintf("join: policy %s returned duplicate index %d", p.Name(), i))
		}
		seen[i] = true
	}
}

// CountJoinsOffline replays streams against a fixed replacement trace — used
// by tests to cross-check Result accounting. Given per-step keep decisions
// it returns the post-warmup join count; decisions[t] lists candidate
// indices kept at step t (same candidate ordering as Run).
func CountJoinsOffline(r, s []int, decisions [][]int, cfg Config) int {
	replay := &scriptedPolicy{decisions: decisions}
	return Run(r, s, replay, cfg, stats.NewRNG(0)).Joins
}

type scriptedPolicy struct {
	decisions [][]int
	t         int
}

func (sp *scriptedPolicy) Name() string             { return "scripted" }
func (sp *scriptedPolicy) Reset(Config, *stats.RNG) { sp.t = 0 }
func (sp *scriptedPolicy) Evict(st *State, cands []Tuple, n int) []int {
	keep := map[int]bool{}
	if st.Time < len(sp.decisions) {
		for _, i := range sp.decisions[st.Time] {
			keep[i] = true
		}
	}
	var out []int
	for i := range cands {
		if !keep[i] && len(out) < n {
			out = append(out, i)
		}
	}
	return out
}
