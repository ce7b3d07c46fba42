// Concurrency seeds for the golden corpus: one violation per analyzer of
// the concurrency suite — a leaked goroutine, an undrained queue send, a
// torn atomic field, and a merge emitted in arrival order.
package shardrt

import "sync/atomic"

// SpawnLoop leaks a goroutine: an unconditional loop with no exit.
func SpawnLoop() {
	go func() {
		for {
		}
	}()
}

// Queue is sent on but never drained anywhere in the module.
type Queue struct {
	ch chan int
}

// Push blocks forever once the buffer fills.
func (q *Queue) Push(v int) {
	q.ch <- v
}

// Hits mixes atomic increments with a plain read.
type Hits struct {
	n int64
}

// Inc bumps the counter atomically.
func (h *Hits) Inc() {
	atomic.AddInt64(&h.n, 1)
}

// Peek reads it plainly — the tear.
func (h *Hits) Peek() int64 {
	return h.n
}

// Rec mirrors the runtime's merged record.
type Rec struct {
	RSeq int
	SSeq int
}

// Merge returns the receive loop's accumulation unsorted: arrival order.
func Merge(ch chan Rec) []Rec {
	var out []Rec
	for v := range ch {
		out = append(out, v)
	}
	return out
}

func recLess(a, b Rec) bool {
	if a.RSeq != b.RSeq {
		return a.RSeq < b.RSeq
	}
	return a.SSeq < b.SSeq
}

// mergeRuns appends whichever head the sequence numbers put first: the
// result is in seq order however the runs were gathered.
func mergeRuns(out []Rec, runs [][]Rec) []Rec {
	for len(runs) > 0 {
		lo := 0
		for i := 1; i < len(runs); i++ {
			if recLess(runs[i][0], runs[lo][0]) {
				lo = i
			}
		}
		out = append(out, runs[lo][0])
		if runs[lo] = runs[lo][1:]; len(runs[lo]) == 0 {
			runs = append(runs[:lo], runs[lo+1:]...)
		}
	}
	return out
}

// MergeRuns gathers in receive order and merges by seq: clean.
func MergeRuns(ch chan []Rec) []Rec {
	var runs [][]Rec
	for r := range ch {
		runs = append(runs, r)
	}
	return mergeRuns(nil, runs)
}

// Run is one shard's sorted output plus the order it was received in.
type Run struct {
	Recs    []Rec
	Arrived int
}

// mergeRunsTied compares triggers only and lets the receive stamp break
// ties.
func mergeRunsTied(out []Rec, runs []Run) []Rec {
	for len(runs) > 0 {
		lo := 0
		for i := 1; i < len(runs); i++ {
			a, b := runs[i], runs[lo]
			if a.Recs[0].RSeq < b.Recs[0].RSeq || (a.Recs[0].RSeq == b.Recs[0].RSeq && a.Arrived < b.Arrived) {
				lo = i
			}
		}
		out = append(out, runs[lo].Recs[0])
		if runs[lo].Recs = runs[lo].Recs[1:]; len(runs[lo].Recs) == 0 {
			runs = append(runs[:lo], runs[lo+1:]...)
		}
	}
	return out
}

// MergeRunsTied emits scheduling order wherever two triggers tie.
func MergeRunsTied(ch chan Run) []Rec {
	var runs []Run
	for r := range ch {
		runs = append(runs, r)
	}
	return mergeRunsTied(nil, runs)
}
