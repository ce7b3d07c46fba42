package engine

import (
	"errors"
	"fmt"
	"slices"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// ReferenceJoin is the obvious implementation of the operator: a linear scan
// over the cache for matching, per-step allocations, and a full candidate
// copy for every replacement decision. It exists as the oracle for the
// differential and fuzz tests — and for the before/after benchmarks — so the
// indexed Join can be held byte-identical to something trivially auditable.
// Its semantics are the operator's semantics, including the eager pruning of
// window-expired entries before candidate assembly, and its cache is the
// operator's table of slots, kept by the same three rules with plain slices:
// matches are emitted in ID order; an arrival that survives its decision
// takes the lowest slot a cached victim of that decision holds (R before S)
// and is appended when none is left; a slot freed with no arrival to fill it
// — by window expiry, oldest entry first — is closed by the last slot's entry.
//
// It ignores Config.Telemetry; instrument the real operator instead.
type ReferenceJoin struct {
	cfg    Config
	policy join.Policy
	hists  [2]*process.History
	state  *join.State
	cache  []entry
	nextID int
	time   int
	m      Metrics
}

// entry is the oracle's cache slot: the policy's tuple beside the caller's
// (payload and tag ride along in it), the obvious layout (Join keeps them in
// parallel slices).
type entry struct {
	t    join.Tuple
	from Tuple
}

// NewReferenceJoin validates the configuration and builds the oracle.
func NewReferenceJoin(cfg Config) (*ReferenceJoin, error) {
	if cfg.CacheSize < 1 {
		return nil, errors.New("engine: cache size must be >= 1")
	}
	j := &ReferenceJoin{
		cfg:    cfg,
		policy: defaultPolicy(cfg),
		hists:  [2]*process.History{process.NewHistory(), process.NewHistory()},
	}
	simCfg := join.Config{CacheSize: cfg.CacheSize, Window: cfg.Window, Band: cfg.Band, Procs: cfg.Procs}
	j.state = &join.State{Hists: j.hists, Config: simCfg}
	j.policy.Reset(simCfg, stats.NewRNG(cfg.Seed+1))
	return j, nil
}

// Step is Join.Step written the straightforward way. Unlike Join.Step, the
// returned slice is freshly allocated every call.
func (j *ReferenceJoin) Step(r, s Tuple) []Pair {
	return j.StepTuplePair(TuplePair{R: r, S: s})
}

// StepTuplePair is one element of Join.StepBatch written the straightforward
// way: the clock moves past tp.Skip steps first, and only the sides
// tp.Arrivals names arrive.
func (j *ReferenceJoin) StepTuplePair(tp TuplePair) []Pair {
	t := j.time + tp.Skip
	j.time = t + 1
	j.m.Steps++
	j.hists[core.StreamR].AppendAt(t, tp.R.Key)
	j.hists[core.StreamS].AppendAt(t, tp.S.Key)
	// The arrivals enter as new entries, R first; a side with none is a
	// NoValue tuple to the probe, which then joins nothing.
	r, s := tp.R, tp.S
	var newEntries []entry
	arrive := func(tu Tuple, stream core.StreamID) {
		newEntries = append(newEntries, entry{t: join.Tuple{ID: j.nextID + len(newEntries), Value: tu.Key, Stream: stream, Arrived: t}, from: tu})
	}
	if tp.Arrivals == OnlyS {
		r = Tuple{Key: process.NoValue}
	} else {
		arrive(r, core.StreamR)
	}
	if tp.Arrivals == OnlyR {
		s = Tuple{Key: process.NoValue}
	} else {
		arrive(s, core.StreamS)
	}
	j.nextID += len(newEntries)
	if o, ok := j.policy.(join.ArrivalObserver); ok {
		o.ObserveArrivals(r.Key, s.Key)
	}
	j.state.Time = t

	// Eager pruning of window-expired entries: the oldest entry, while it has
	// expired.
	for j.cfg.Window > 0 && len(j.cache) > 0 {
		oldest := 0
		for i, c := range j.cache {
			if c.t.ID < j.cache[oldest].t.ID {
				oldest = i
			}
		}
		if t-j.cache[oldest].t.Arrived <= j.cfg.Window {
			break
		}
		j.m.Expired++
		j.release(oldest)
	}

	byID := slices.Clone(j.cache)
	slices.SortFunc(byID, func(a, b entry) int { return a.t.ID - b.t.ID })
	var out []Pair
	for _, c := range byID {
		ct := c.from
		switch c.t.Stream {
		case core.StreamR:
			if keysMatch(c.t.Value, s.Key, j.cfg.Band) {
				out = append(out, Pair{Time: t, R: ct, S: s})
			}
		case core.StreamS:
			if keysMatch(c.t.Value, r.Key, j.cfg.Band) {
				out = append(out, Pair{Time: t, R: r, S: ct})
			}
		}
	}
	if keysMatch(r.Key, s.Key, j.cfg.Band) {
		out = append(out, Pair{Time: t, R: r, S: s, SameTime: true})
		j.m.SameTimePairs++
	}
	j.m.Pairs += len(out)

	cands := append(append(make([]entry, 0, len(j.cache)+2), j.cache...), newEntries...)
	need := len(cands) - j.cfg.CacheSize
	if need <= 0 {
		j.cache = cands
		return out
	}
	tuples := make([]join.Tuple, len(cands))
	for i, c := range cands {
		tuples[i] = c.t
	}
	evict := j.policy.Evict(j.state, tuples, need)
	if len(evict) != need {
		panic(fmt.Sprintf("engine: policy %s returned %d evictions, need %d", j.policy.Name(), len(evict), need))
	}
	drop := make(map[int]bool, need)
	for _, i := range evict {
		if i < 0 || i >= len(cands) || drop[i] {
			panic(fmt.Sprintf("engine: policy %s returned invalid eviction %d", j.policy.Name(), i))
		}
		drop[i] = true
	}
	j.m.Evictions += need
	var survivors []entry
	for i, e := range newEntries {
		if !drop[len(j.cache)+i] {
			survivors = append(survivors, e)
		}
	}
	for i := range j.cache {
		if drop[i] {
			j.cache[i], survivors = survivors[0], survivors[1:]
		}
	}
	j.cache = append(j.cache, survivors...)
	return out
}

// release frees slot i with no arrival to fill it: the last slot's entry
// closes the hole.
func (j *ReferenceJoin) release(i int) {
	last := len(j.cache) - 1
	j.cache[i] = j.cache[last]
	j.cache = j.cache[:last]
}

// Metrics returns the oracle's counters.
func (j *ReferenceJoin) Metrics() Metrics {
	m := j.m
	m.CacheLen = len(j.cache)
	return m
}

// Snapshot returns the cached tuples in slot order.
func (j *ReferenceJoin) Snapshot() []join.Tuple {
	out := make([]join.Tuple, len(j.cache))
	for i, c := range j.cache {
		out[i] = c.t
	}
	return out
}
