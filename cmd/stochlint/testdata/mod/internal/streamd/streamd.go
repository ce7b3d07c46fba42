// Package streamd seeds the golden corpus's network-daemon findings: the
// package is in the decision scope (admission, dedup and replay decide what
// the runtime ingests), so a wall-clock read in the session reaper must
// report — the real daemon reads the wall clock at one audited site, for
// deadlines and reaping.
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
