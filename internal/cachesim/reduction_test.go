package cachesim

import (
	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/stats"
)

// JoinAdapter wraps a caching policy as a joining policy over the reduced
// streams, implementing a "reasonable replacement policy" in the sense of
// Theorem 1: it never caches reference-stream tuples and always replaces the
// supply tuple that has just produced its (single possible) join result.
// Running it through engine.Run yields exactly as many result tuples as the
// caching policy yields hits (Theorem 1), which cachesim_test verifies.
type JoinAdapter struct {
	Inner Policy
	// Refs is the original (un-encoded) reference sequence, needed to feed
	// the inner policy the values it understands.
	Refs []int

	capacity int
	// decode maps encoded supply-tuple values back to their database value.
	decode map[int]int
}

// NewJoinAdapter builds the adapter; rPrime/sPrime must come from
// Reduce(refs).
func NewJoinAdapter(inner Policy, refs []int) *JoinAdapter {
	return &JoinAdapter{Inner: inner, Refs: refs}
}

// Name implements join.Policy.
func (a *JoinAdapter) Name() string { return "reduced(" + a.Inner.Name() + ")" }

// EagerEvict implements join.EagerEvictor: the adapter discards
// reference-stream tuples and expired supply tuples at every step, whether
// or not the cache is overflowing.
func (a *JoinAdapter) EagerEvict() {}

// Reset implements join.Policy.
func (a *JoinAdapter) Reset(cfg join.Config, rng *stats.RNG) {
	a.capacity = cfg.CacheSize
	a.Inner.Reset(cfg.CacheSize, a.Refs, rng)
	// Rebuild the decode table exactly as Reduce built the encode table.
	occ := make(map[int]int, len(a.Refs))
	code := 0
	a.decode = make(map[int]int)
	seen := make(map[[2]int]int)
	encode := func(v, i int) int {
		k := [2]int{v, i}
		c, ok := seen[k]
		if !ok {
			c = code
			code++
			seen[k] = c
		}
		return c
	}
	for _, v := range a.Refs {
		i := occ[v]
		occ[v] = i + 1
		encode(v, i)        // R' tuple
		c := encode(v, i+1) // S' tuple
		a.decode[c] = v
	}
}

// Evict implements join.Policy. candidates = cached S′ tuples + new R′ tuple
// + new S′ tuple; exactly the last two slots hold the arrivals (the
// simulator appends arrivals after the cache).
func (a *JoinAdapter) Evict(st *join.State, cands []join.Tuple, n int) []int {
	t := st.Time
	v := a.Refs[t]
	var evict []int

	// The reference-stream arrival is never cached (reasonable policy /
	// Observation 3 of Section 2).
	for i, c := range cands {
		if c.Stream == core.StreamR {
			evict = append(evict, i)
		}
	}

	// Hit: the cached supply tuple for (v, k) just joined and expires —
	// replace it with the newly arrived relabeled copy (v, k+1).
	hitIdx := -1
	for i, c := range cands {
		if c.Stream == core.StreamS && c.Arrived < t && a.decode[c.Value] == v {
			// The expired copy is the one whose encoded pair matches the
			// current reference arrival's pair: its encoded value equals the
			// R' arrival's encoded value... the R' arrival at t encodes
			// (v, k) and the expired supply tuple also encodes (v, k) — but
			// supply tuples encode (v, i+1), so equality with the *next* R'
			// occurrence is what identifies it. The simplest correct test:
			// it is the unique cached S' tuple whose decoded value is v.
			hitIdx = i
			break
		}
	}
	a.Inner.Touch(t, v, hitIdx >= 0)
	if hitIdx >= 0 {
		evict = append(evict, hitIdx)
		return evict
	}

	// Miss: ask the inner policy whether (and what) to evict for v.
	var cachedVals []int
	var cachedIdx []int
	for i, c := range cands {
		if c.Stream == core.StreamS && c.Arrived < t {
			cachedVals = append(cachedVals, a.decode[c.Value])
			cachedIdx = append(cachedIdx, i)
		}
	}
	newSIdx := -1
	for i, c := range cands {
		if c.Stream == core.StreamS && c.Arrived == t {
			newSIdx = i
		}
	}
	if len(cachedVals) >= a.capacity {
		if victim, admit := a.Inner.Victim(t, v, cachedVals); admit {
			evict = append(evict, cachedIdx[victim])
		} else {
			evict = append(evict, newSIdx)
		}
	}
	return evict
}
