// Package streamd seeds the golden corpus's network-daemon findings: the
// package is in the decision scope (admission, dedup and replay decide what
// the runtime ingests) and the merge-determinism scope (it forwards the
// runtime's merged order to clients), so a wall-clock read in the session
// reaper and a results frame assembled in channel-arrival order must both
// report — the real daemon reads the wall clock at one audited site, for
// deadlines and reaping, and forwards the engine loop's merged order as is.
package streamd

import "time"

// Session is a resumable client session's reap state.
type Session struct {
	LastSeenNs int64
}

// Expired decides reaping off a raw wall-clock read in the session logic.
func Expired(s *Session, ttlNs int64) bool {
	return time.Now().UnixNano()-s.LastSeenNs > ttlNs
}

// Pair mirrors the daemon's wire pair.
type Pair struct {
	RSeq uint64
	SSeq uint64
}

// CollectResults accumulates shard results in channel-arrival order — which
// shard's goroutine finished first — and returns them unsorted.
func CollectResults(ch chan Pair) []Pair {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	return out
}
