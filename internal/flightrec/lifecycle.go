package flightrec

import "sort"

// LifeKind classifies one lifecycle event of a tracked key.
type LifeKind uint8

// The lifecycle event kinds, in the causal order a tuple moves through the
// operator: ingest (arrival observed), match (a join pair emitted), admit
// (cached and indexed), evict (a replacement decision discarded it) and
// expire (window expiry pruned it).
const (
	LifeIngest LifeKind = iota
	LifeMatch
	LifeAdmit
	LifeEvict
	LifeExpire
	numLifeKinds
)

var lifeKindNames = [numLifeKinds]string{
	"ingest", "match", "admit", "evict", "expire",
}

// String returns the kind's stable wire name.
func (k LifeKind) String() string {
	if int(k) < len(lifeKindNames) {
		return lifeKindNames[k]
	}
	return "unknown"
}

// MarshalJSON encodes the kind as its stable wire name.
func (k LifeKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name back to a kind; unknown names decode to
// numLifeKinds ("unknown") so newer bundles still load.
func (k *LifeKind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, n := range lifeKindNames {
		if n == s {
			*k = LifeKind(i)
			return nil
		}
	}
	*k = numLifeKinds
	return nil
}

// LifeEvent is one causal record in a tracked key's lifecycle.
type LifeEvent struct {
	Step int      `json:"step"`
	Kind LifeKind `json:"kind"`
	// Stream is "R" or "S". Pass constant strings; the value is stored by
	// reference.
	Stream string `json:"stream"`
	// TupleID is the operator-assigned tuple ID, or -1 when the event is
	// on a bare arrival key (a band-join match seen from the arrival's side).
	TupleID int `json:"tuple_id"`
	// Partner is the other side's key on a match event, 0 otherwise.
	Partner int `json:"partner"`
}

// KeyLifecycle is one tracked key's record: the retained events plus the
// total ever recorded (the ring keeps the newest EventsPerKey).
type KeyLifecycle struct {
	Key    int         `json:"key"`
	Total  int         `json:"total"`
	Events []LifeEvent `json:"events"`
}

// keyLife is the fixed-capacity per-key event ring.
type keyLife struct {
	events []LifeEvent
	next   int
	total  int
}

// Sampled reports whether a key is in the deterministic tracked subset:
// a seeded hash of the key masked by the sampling rate. The same seed and
// rate always select the same keys, so replays track identical subsets.
func (r *Recorder) Sampled(key int) bool {
	return splitmix64(uint64(key)^r.sampleSeed)&r.sampleMask == 0
}

// Life records one lifecycle event for a sampled key. Keys beyond
// MaxTrackedKeys are dropped (the map is full-memory-bounded); events
// beyond EventsPerKey overwrite the oldest for that key. Callers should
// gate on Sampled first — Life itself does not re-check, so tests can force
// events for specific keys.
func (r *Recorder) Life(key int, ev LifeEvent) {
	r.mu.Lock()
	kl := r.keys[key]
	if kl == nil {
		if len(r.keys) >= r.maxKeys {
			r.mu.Unlock()
			return
		}
		kl = &keyLife{events: make([]LifeEvent, 0, r.eventsPer)}
		r.keys[key] = kl
	}
	if len(kl.events) < cap(kl.events) {
		kl.events = append(kl.events, ev)
	} else {
		kl.events[kl.next] = ev
		kl.next = (kl.next + 1) % cap(kl.events)
	}
	kl.total++
	r.mu.Unlock()
}

// Lifecycle returns a tracked key's record, chronological, or nil when the
// key is not tracked.
func (r *Recorder) Lifecycle(key int) []LifeEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	kl := r.keys[key]
	if kl == nil {
		return nil
	}
	return kl.snapshot()
}

func (kl *keyLife) snapshot() []LifeEvent {
	out := make([]LifeEvent, 0, len(kl.events))
	out = append(out, kl.events[kl.next:]...)
	out = append(out, kl.events[:kl.next]...)
	return out
}

func (r *Recorder) trackedKeysLocked() []int {
	ks := make([]int, 0, len(r.keys))
	for k := range r.keys {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// lifecycleLocked snapshots every tracked key's record in key order, for
// bundle export.
func (r *Recorder) lifecycleLocked() []KeyLifecycle {
	ks := r.trackedKeysLocked()
	out := make([]KeyLifecycle, 0, len(ks))
	for _, k := range ks {
		kl := r.keys[k]
		out = append(out, KeyLifecycle{Key: k, Total: kl.total, Events: kl.snapshot()})
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a strong, allocation-free integer
// hash. Fixed constants keep the sampled subset stable across builds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
