package engine

import (
	"fmt"

	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/telemetry"
)

// StepChecked is the fault-tolerant boundary around Step: arrivals are
// validated before any state changes, and a panic escaping the step (a buggy
// custom policy, a poisoned model) comes back as an error instead of
// unwinding the embedding system.
//
// Failure semantics differ by class. ErrBadTuple is a clean rejection — the
// step did not happen, no state was touched, and the operator accepts
// further steps. ErrStepFailed means the step aborted midway; the cache may
// be inconsistent, so the caller should Restore from a checkpoint (or
// rebuild the operator) before continuing. Policies wrapped in a
// policy.Ladder never reach the ErrStepFailed path for decision failures —
// the ladder degrades to a simpler rung instead.
func (j *Join) StepChecked(r, s Tuple) (out []Pair, err error) {
	if e := checkKey(r.Key); e != nil {
		return nil, fmt.Errorf("%w: stream R: %v", ErrBadTuple, e)
	}
	if e := checkKey(s.Key); e != nil {
		return nil, fmt.Errorf("%w: stream S: %v", ErrBadTuple, e)
	}
	defer func() {
		if rec := recover(); rec != nil {
			out, err = nil, fmt.Errorf("%w: %v", ErrStepFailed, rec)
			// The cache may be inconsistent, so the bundle's embedded
			// checkpoint may fail to serialize — the span ring and lifecycle
			// records still land, which is the evidence that matters here.
			// Any bundle a mid-step downgrade requested is superseded.
			j.pendingBundle = ""
			j.autoDumpBundle("panic")
		}
	}()
	return j.Step(r, s), nil
}

// inDomain reports whether k is in [MinKey, MaxKey] or is the NoValue
// sentinel (a tuple that can never join), which sits just below MinKey: two
// compares.
func inDomain(k int) bool { return k >= process.NoValue && k <= MaxKey }

// checkKey rejects keys outside [MinKey, MaxKey]; the NoValue sentinel is
// explicitly allowed.
func checkKey(k int) error {
	if !inDomain(k) {
		return fmt.Errorf("key %d outside [%d, %d]", k, MinKey, MaxKey)
	}
	return nil
}

// CheckInvariants verifies the operator's structural invariants: the cache
// is within budget and holds no window-expired entry, the arrival list
// visits every slot once, in strictly ascending ID order with nondecreasing
// arrival times, and the probe index (hash or ordered, whichever the
// configuration uses) agrees exactly with the cache contents, every posting
// naming the slot that holds its entry. It returns nil or an error wrapping
// ErrInvariant.
//
// The walk is linear in the cache and index size, so it is meant for tests
// and chaos harnesses, not the hot path.
//
// A failure dumps a diagnostics bundle (reason "invariant") when a flight
// recorder with a bundle directory is attached.
func (j *Join) CheckInvariants() error {
	err := j.checkInvariants()
	if err != nil {
		j.autoDumpBundle("invariant")
	}
	return err
}

func (j *Join) checkInvariants() error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s", ErrInvariant, fmt.Sprintf(format, args...))
	}
	if len(j.cache) > j.cfg.CacheSize {
		return fail("cache holds %d entries, budget %d", len(j.cache), j.cfg.CacheSize)
	}
	if len(j.slots) != len(j.cache) {
		return fail("cache holds %d tuples and %d slot records", len(j.cache), len(j.slots))
	}
	if len(j.next) != len(j.cache) || len(j.prev) != len(j.cache) {
		return fail("arrival list of %d and %d links for %d slots", len(j.next), len(j.prev), len(j.cache))
	}
	if len(j.nextSame) != len(j.cache) || len(j.prevSame) != len(j.cache) {
		return fail("equi index chains of %d and %d links for %d slots", len(j.nextSame), len(j.prevSame), len(j.cache))
	}
	// A walk of len(cache) slots in strictly ascending ID order, every prev
	// pointing back, that ends at tail has visited every slot once.
	walked, back := 0, int32(-1)
	for s := j.head; s >= 0; walked, back, s = walked+1, s, j.next[s] {
		if walked == len(j.cache) || int(s) >= len(j.cache) || j.prev[s] != back {
			return fail("arrival list broken at slot %d, %d slots in, after slot %d", s, walked, back)
		}
		if back < 0 {
			continue
		}
		if older, e := j.cache[back], j.cache[s]; e.ID <= older.ID {
			return fail("arrival list IDs not strictly ascending: %d (slot %d) after %d (slot %d)", e.ID, s, older.ID, back)
		} else if e.Arrived < older.Arrived {
			return fail("arrival list times not nondecreasing: %d (slot %d) after %d (slot %d)", e.Arrived, s, older.Arrived, back)
		}
	}
	if walked != len(j.cache) || back != j.tail {
		return fail("arrival list links %d of %d slots and ends at slot %d, tail is %d", walked, len(j.cache), back, j.tail)
	}
	indexable := 0
	for i, e := range j.cache {
		if e.ID < 0 || e.ID >= j.nextID {
			return fail("entry %d has ID %d outside [0, %d)", i, e.ID, j.nextID)
		}
		if e.Arrived < 0 || e.Arrived >= j.time {
			return fail("entry %d arrived at %d, operator time is %d", i, e.Arrived, j.time)
		}
		if w := j.cfg.Window; w > 0 && (j.time-1)-e.Arrived > w {
			return fail("entry %d (arrived %d) expired at time %d under window %d", i, e.Arrived, j.time-1, w)
		}
		if e.Value != process.NoValue {
			indexable++
		}
	}
	return j.checkIndex(indexable, fail)
}

// checkIndex verifies index↔cache agreement: every indexable cache entry has
// exactly one posting under its (stream, value), postings are in ID order,
// and every posting names a slot that holds its (stream, value). In the equi
// index every key is where its probe finds it, and its chain is linked both
// ways from the cell's head to its tail.
func (j *Join) checkIndex(indexable int, fail func(string, ...interface{}) error) error {
	posted := 0
	if j.cfg.Band == 0 {
		for side := range j.equi {
			x := &j.equi[side]
			for i, c := range x.cells {
				if c.key == process.NoValue {
					continue
				}
				if x.find(c.key) != i {
					return fail("equi index side %d: key %d in cell %d, out of reach of its probe from cell %d", side, c.key, i, x.home(c.key))
				}
				// IDs strictly ascending along the walk bound it by the cache.
				n, back := 0, int32(-1)
				for s := c.head; s >= 0; n, back, s = n+1, s, j.nextSame[s] {
					if err := j.checkPosting(side, int(c.key), int(s), fail); err != nil {
						return err
					}
					if j.prevSame[s] != back {
						return fail("equi index (side %d, key %d) chain broken at slot %d: back link %d, want %d", side, c.key, s, j.prevSame[s], back)
					}
					if back >= 0 && j.cache[back].ID >= j.cache[s].ID {
						return fail("equi index (side %d, key %d) chain not ID-ascending at slot %d", side, c.key, s)
					}
				}
				if n == 0 || back != c.tail {
					return fail("equi index (side %d, key %d) chain of %d slots ends at slot %d, tail is %d", side, c.key, n, back, c.tail)
				}
				posted += n
			}
		}
	} else {
		for side, ord := range j.ord {
			for k, p := range ord {
				if err := j.checkPosting(side, p.v, p.slot, fail); err != nil {
					return err
				}
				if k > 0 {
					prev := ord[k-1]
					if prev.v > p.v || (prev.v == p.v && j.cache[prev.slot].ID >= j.cache[p.slot].ID) {
						return fail("ordered index side %d not (value, ID)-ascending at %d", side, k)
					}
				}
			}
			posted += len(ord)
		}
	}
	if posted != indexable {
		return fail("index holds %d postings for %d indexable cache entries", posted, indexable)
	}
	return nil
}

// checkPosting verifies one index posting against the slot it names.
func (j *Join) checkPosting(side, v, slot int, fail func(string, ...interface{}) error) error {
	if slot < 0 || slot >= len(j.cache) {
		return fail("index posting (side %d, value %d) names slot %d of %d", side, v, slot, len(j.cache))
	}
	if e := j.cache[slot]; int(e.Stream) != side || e.Value != v {
		return fail("index posting (side %d, value %d, slot %d) disagrees with cached (stream %d, value %d, ID %d)",
			side, v, slot, e.Stream, e.Value, e.ID)
	}
	return nil
}

// FallbackCounts reports the degradation ladder's per-rung fallback
// counters, index-aligned with names, when the configured policy is a
// policy.Ladder (directly or behind the telemetry wrapper). ok is false for
// non-ladder policies.
func (j *Join) FallbackCounts() (names []string, counts []uint64, ok bool) {
	lad, isLadder := unwrapPolicy(j.policy).(*policy.Ladder)
	if !isLadder {
		return nil, nil, false
	}
	names = lad.RungNames()
	counts = make([]uint64, len(names))
	for i := range counts {
		counts[i] = lad.FallbackCount(i)
	}
	return names, counts, true
}

// unwrapPolicy strips instrumentation wrappers (anything with an Unwrap
// method) off a policy.
func unwrapPolicy(p join.Policy) join.Policy {
	for {
		u, ok := p.(interface{ Unwrap() join.Policy })
		if !ok {
			return p
		}
		p = u.Unwrap()
	}
}

// wireDowngrades connects a ladder's downgrade callback to a telemetry
// registry: one ladder_fallback_total counter per (from, to) edge, plus a
// record in the downgrade trace. An OnDowngrade the caller installed first
// keeps firing.
func wireDowngrades(lad *policy.Ladder, reg *telemetry.Registry) {
	prev := lad.OnDowngrade
	lad.OnDowngrade = func(d policy.Downgrade) {
		if prev != nil {
			prev(d)
		}
		reg.Counter(`ladder_fallback_total{from="` + d.From + `",to="` + d.To + `"}`).Inc()
		reason := ""
		if d.Err != nil {
			reason = d.Err.Error()
		}
		reg.Downgrades().Record(telemetry.DowngradeRecord{Step: d.Step, From: d.From, To: d.To, Reason: reason})
	}
}
