// Package multijoin extends the joining problem to multiple binary equijoin
// queries over multiple streams sharing one cache — the generalization the
// paper's appendix sketches for Theorem 2: "in the case of multiple binary
// joins, this expected benefit is a summary of each expected benefit of the
// binary join with one partner stream". A tuple's HEEB score is accordingly
// the sum of its per-partner scores.
package multijoin

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"stochstream/internal/core"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// Edge is one binary equijoin between two streams, identified by index.
type Edge struct{ A, B int }

// Config describes a multi-join simulation.
type Config struct {
	// Procs holds one stream model per stream; its length fixes the stream
	// count. Model-free policies may leave entries nil.
	Procs []process.Process
	// Edges lists the binary joins of the query workload.
	Edges []Edge
	// CacheSize is the shared cache budget.
	CacheSize int
	// Warmup excludes early results from Result.Joins (negative = 4×cache).
	Warmup int
	// Band generalizes each equijoin to a band join when > 0.
	Band int
}

// EffectiveWarmup resolves the warm-up period.
func (c Config) EffectiveWarmup() int {
	if c.Warmup >= 0 {
		return c.Warmup
	}
	return 4 * c.CacheSize
}

// partners returns, per stream, the set of streams it joins with. A pair
// listed twice (or as a self-join) is rejected.
func (c Config) partners() ([][]int, error) {
	n := len(c.Procs)
	seen := map[[2]int]bool{}
	out := make([][]int, n)
	for _, e := range c.Edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
			return nil, fmt.Errorf("multijoin: edge (%d,%d) outside streams [0,%d)", e.A, e.B, n)
		}
		if e.A == e.B {
			return nil, fmt.Errorf("multijoin: self-join (%d,%d) not supported", e.A, e.B)
		}
		k := [2]int{min(e.A, e.B), max(e.A, e.B)}
		if seen[k] {
			return nil, fmt.Errorf("multijoin: duplicate edge (%d,%d)", e.A, e.B)
		}
		seen[k] = true
		out[e.A] = append(out[e.A], e.B)
		out[e.B] = append(out[e.B], e.A)
	}
	return out, nil
}

// Tuple is a cached tuple in the multi-join setting.
type Tuple struct {
	ID      int
	Value   int
	Stream  int
	Arrived int
}

// State is the policy's view at decision time.
type State struct {
	Time     int
	Hists    []*process.History
	Config   Config
	Partners [][]int
	RNG      *stats.RNG
}

// Policy decides evictions for the shared cache.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Reset prepares for a run.
	Reset(cfg Config, rng *stats.RNG)
	// Evict returns indices into candidates of exactly n tuples to discard.
	Evict(st *State, candidates []Tuple, n int) []int
}

// ArrivalObserver is implemented by policies that keep more of the streams'
// past than State.Hists does (PROB's value frequencies): Run shows them every
// step's arrivals, one a stream, before any Evict of that step.
type ArrivalObserver interface {
	ObserveArrivals(arrivals []Tuple)
}

// Result summarizes a run.
type Result struct {
	// Joins counts result tuples after warm-up, across all edges.
	Joins int
	// TotalJoins counts everything.
	TotalJoins int
	// PerEdge[i] counts post-warm-up results of Edges[i].
	PerEdge []int
	// Occupancy[s] is the mean post-warm-up fraction of the cache held by
	// stream s.
	Occupancy []float64
}

// Run simulates the multi-join workload over the given per-stream value
// sequences (streams[s][t] arrives on stream s at time t).
func Run(streams [][]int, p Policy, cfg Config, rng *stats.RNG) (Result, error) {
	n := len(cfg.Procs)
	if len(streams) != n {
		return Result{}, fmt.Errorf("multijoin: %d streams for %d models", len(streams), n)
	}
	if n < 2 {
		return Result{}, fmt.Errorf("multijoin: need at least 2 streams")
	}
	length := len(streams[0])
	for s := 1; s < n; s++ {
		if len(streams[s]) != length {
			return Result{}, fmt.Errorf("multijoin: stream %d has length %d, want %d", s, len(streams[s]), length)
		}
	}
	if cfg.CacheSize < 1 {
		return Result{}, fmt.Errorf("multijoin: cache size must be >= 1")
	}
	partners, err := cfg.partners()
	if err != nil {
		return Result{}, err
	}
	edgeIndex := map[[2]int]int{}
	for i, e := range cfg.Edges {
		edgeIndex[[2]int{min(e.A, e.B), max(e.A, e.B)}] = i
	}

	p.Reset(cfg, rng)
	observer, _ := p.(ArrivalObserver)
	warmup := cfg.EffectiveWarmup()
	hists := make([]*process.History, n)
	for s := range hists {
		hists[s] = process.NewHistory()
	}
	st := &State{Hists: hists, Config: cfg, Partners: partners, RNG: rng}
	var cache []Tuple
	res := Result{PerEdge: make([]int, len(cfg.Edges)), Occupancy: make([]float64, n)}
	occupancySamples := 0
	nextID := 0

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

	for t := 0; t < length; t++ {
		arrivals := make([]Tuple, n)
		for s := 0; s < n; s++ {
			arrivals[s] = Tuple{ID: nextID, Value: streams[s][t], Stream: s, Arrived: t}
			nextID++
			hists[s].Append(streams[s][t])
		}
		if observer != nil {
			observer.ObserveArrivals(arrivals)
		}
		st.Time = t

		// Arrivals join cached tuples of their partner streams.
		for _, a := range arrivals {
			for _, c := range cache {
				isPartner := false
				for _, ps := range partners[a.Stream] {
					if ps == c.Stream {
						isPartner = true
						break
					}
				}
				if isPartner && matches(a.Value, c.Value) {
					res.TotalJoins++
					if t >= warmup {
						res.Joins++
						ei := edgeIndex[[2]int{min(a.Stream, c.Stream), max(a.Stream, c.Stream)}]
						res.PerEdge[ei]++
					}
				}
			}
		}

		// Replacement: cache plus all arrivals.
		cands := append(append(make([]Tuple, 0, len(cache)+n), cache...), arrivals...)
		need := len(cands) - cfg.CacheSize
		if need <= 0 {
			cache = cands
		} else {
			evict := p.Evict(st, cands, need)
			if len(evict) != need {
				return Result{}, fmt.Errorf("multijoin: policy %s returned %d evictions, need %d", p.Name(), len(evict), need)
			}
			drop := make(map[int]bool, need)
			for _, i := range evict {
				if i < 0 || i >= len(cands) || drop[i] {
					return Result{}, fmt.Errorf("multijoin: policy %s returned invalid eviction %d", p.Name(), i)
				}
				drop[i] = true
			}
			cache = cache[:0]
			for i, c := range cands {
				if !drop[i] {
					cache = append(cache, c)
				}
			}
		}

		if t >= warmup && len(cache) > 0 {
			occupancySamples++
			for _, c := range cache {
				res.Occupancy[c.Stream] += 1 / float64(len(cache))
			}
		}
	}
	if occupancySamples > 0 {
		for s := range res.Occupancy {
			res.Occupancy[s] /= float64(occupancySamples)
		}
	}
	return res, nil
}

// HEEB scores each candidate as the sum of its per-partner HEEB scores (the
// appendix's multi-join benefit) and discards the lowest.
type HEEB struct {
	// Alpha is Lexp's α (0 = derive from the cache size).
	Alpha float64
	// FallbackHorizon bounds sums for non-decaying forecasts (0 = 1000).
	FallbackHorizon int

	alpha float64
}

// Name implements Policy.
func (p *HEEB) Name() string { return "HEEB" }

// Reset implements Policy.
func (p *HEEB) Reset(cfg Config, _ *stats.RNG) {
	p.alpha = p.Alpha
	if p.alpha == 0 {
		p.alpha = stats.AlphaForLifetime(float64(cfg.CacheSize))
	}
	if p.FallbackHorizon == 0 {
		p.FallbackHorizon = 1000
	}
}

// Score returns the summed per-partner HEEB score of one tuple.
func (p *HEEB) Score(st *State, tp Tuple) float64 {
	l := core.LExp{Alpha: p.alpha}
	var sum float64
	for _, partner := range st.Partners[tp.Stream] {
		sum += core.BandJoinH(st.Config.Procs[partner], st.Hists[partner], tp.Value, st.Config.Band, l, p.FallbackHorizon)
	}
	return sum
}

// Evict implements Policy.
func (p *HEEB) Evict(st *State, cands []Tuple, n int) []int {
	scores := make([]float64, len(cands))
	for i, c := range cands {
		scores[i] = p.Score(st, c)
	}
	return lowestN(scores, cands, n)
}

// Rand evicts uniformly at random.
type Rand struct{ rng *stats.RNG }

// Name implements Policy.
func (p *Rand) Name() string { return "RAND" }

// Reset implements Policy.
func (p *Rand) Reset(_ Config, rng *stats.RNG) { p.rng = rng }

// Evict implements Policy.
func (p *Rand) Evict(st *State, cands []Tuple, n int) []int {
	perm := p.rng.Perm(len(cands))
	return perm[:n]
}

// Prob evicts the tuple whose value is least frequent across its partners'
// histories — the PROB heuristic summed over the join graph. The counts are
// its state: pushed in at arrival, snapshotted in value order.
type Prob struct {
	counts []map[int]int
}

// Name implements Policy.
func (p *Prob) Name() string { return "PROB" }

// Reset implements Policy.
func (p *Prob) Reset(cfg Config, _ *stats.RNG) {
	p.counts = make([]map[int]int, len(cfg.Procs))
	for i := range p.counts {
		p.counts[i] = map[int]int{}
	}
}

// ObserveArrivals implements ArrivalObserver.
func (p *Prob) ObserveArrivals(arrivals []Tuple) {
	for _, a := range arrivals {
		p.counts[a.Stream][a.Value]++
	}
}

// Evict implements Policy.
func (p *Prob) Evict(st *State, cands []Tuple, n int) []int {
	scores := make([]float64, len(cands))
	for i, c := range cands {
		var f float64
		for _, partner := range st.Partners[c.Stream] {
			total := st.Hists[partner].Len()
			if total == 0 {
				continue
			}
			count := 0
			for v := c.Value - st.Config.Band; v <= c.Value+st.Config.Band; v++ {
				count += p.counts[partner][v]
			}
			f += float64(count) / float64(total)
		}
		scores[i] = f
	}
	return lowestN(scores, cands, n)
}

// probWire is Prob's counts with each stream's map laid out by ascending
// value: gob writes a map in iteration order, and two snapshots of one state
// must be the same bytes.
type probWire struct {
	Values, Counts [][]int
}

// SnapshotState serializes the counts (the join.StateSnapshotter contract).
func (p *Prob) SnapshotState() ([]byte, error) {
	w := probWire{Values: make([][]int, len(p.counts)), Counts: make([][]int, len(p.counts))}
	for s, m := range p.counts {
		w.Values[s], w.Counts[s] = stats.SortedCounts(m)
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// RestoreState replaces the counts with a snapshot's; the policy must have
// been Reset with the configuration that produced it.
func (p *Prob) RestoreState(data []byte) error {
	var w probWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("multijoin: restoring PROB counts: %w", err)
	}
	if len(w.Values) != len(p.counts) || len(w.Counts) != len(p.counts) {
		return fmt.Errorf("multijoin: PROB snapshot of %d streams, policy has %d", len(w.Values), len(p.counts))
	}
	for s := range p.counts {
		m, err := stats.CountsFrom(w.Values[s], w.Counts[s])
		if err != nil {
			return fmt.Errorf("multijoin: restoring PROB counts of stream %d: %w", s, err)
		}
		p.counts[s] = m
	}
	return nil
}

func lowestN(scores []float64, cands []Tuple, n int) []int {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	// Insertion-sort by (score, ID); candidate counts are small.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j], idx[j-1]
			//lint:ignore floateq deterministic (score, ID) tie-break; scores are bitwise-reproducible kernel outputs
			if scores[a] < scores[b] || (scores[a] == scores[b] && cands[a].ID < cands[b].ID) {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			} else {
				break
			}
		}
	}
	return idx[:n]
}
