// Package mergedet is the seeded-violation corpus for the merge-order
// determinism analyzer: merged results that escape in channel-receive
// (arrival) order — returned directly, via a helper one package away, or
// stored into a field — against the clean shapes (seq-sorted before the
// sink, directly or through a sortPairs-style helper, or N-way merged out of
// per-shard runs by a seq-only comparison).
package mergedet

import (
	"cmp"
	"slices"
	"sort"

	"mergedet/src"
)

// Pair mirrors the runtime's merged emission record: sequence numbers plus
// a payload. Arrived is a receive-order stamp, not a sequence number.
type Pair struct {
	RSeq    int
	SSeq    int
	Val     string
	Arrived int
}

// Returning the receive loop's accumulation unsorted emits in scheduling
// order: whichever shard finished first.
func MergeBad(ch chan Pair) []Pair {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	return out // want "merged result returned in arrival order"
}

// Sorting by the sequence numbers before returning pins the order to the
// ingress, not the scheduler.
func MergeGood(ch chan Pair) []Pair {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RSeq != out[j].RSeq {
			return out[i].RSeq < out[j].RSeq
		}
		return out[i].SSeq < out[j].SSeq
	})
	return out
}

// Sorting by a non-seq field does not fix the order: equal payloads keep
// their arrival order, which is still scheduling-dependent.
func MergeWrongKey(ch chan Pair) []Pair {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Val < out[j].Val })
	return out // want "merged result returned in arrival order"
}

// mergeKey and sortPairs are the runtime's idiom: a seq-only comparator in
// a helper, applied to the slice parameter.
func mergeKey(a, b Pair) bool {
	if a.RSeq != b.RSeq {
		return a.RSeq < b.RSeq
	}
	return a.SSeq < b.SSeq
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool { return mergeKey(ps[i], ps[j]) })
}

// The sort arriving through the helper still sanitizes: the summary says
// sortPairs seq-sorts its parameter.
func MergeViaHelper(ch chan Pair) []Pair {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	sortPairs(out)
	return out
}

// INTERPROCEDURAL-ONLY: src.Collect returns its receive loop's
// accumulation unsorted, so relaying its result emits arrival order even
// though no receive appears in this function's source text.
func Relay(ch chan src.Pair) []src.Pair {
	return src.Collect(ch) // want "merged result returned in arrival order"
}

// Agg persists merged pairs across calls.
type Agg struct {
	pairs []Pair
}

// Storing the arrival-ordered slice into a field is the same escape as
// returning it: the next reader sees scheduling order.
func (a *Agg) Fill(ch chan Pair) {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	a.pairs = out // want "merged result stored in arrival order"
}

// Sorting before the store is clean.
func (a *Agg) FillSorted(ch chan Pair) {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	sortPairs(out)
	a.pairs = out
}

// slices.SortFunc with a seq-only comparator is the same sanitizer as
// sort.Slice: the runtime's shard workers order their runs this way.
func MergeSortFunc(ch chan Pair) []Pair {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Pair) int {
		if a.RSeq != b.RSeq {
			return cmp.Compare(a.RSeq, b.RSeq)
		}
		return cmp.Compare(a.SSeq, b.SSeq)
	})
	return out
}

// ...and with a comparator that reads anything else it sanitizes nothing.
func MergeSortFuncWrongKey(ch chan Pair) []Pair {
	var out []Pair
	for p := range ch {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Pair) int { return cmp.Compare(a.Val, b.Val) })
	return out // want "merged result returned in arrival order"
}

// mergeRuns is the runtime's N-way merge: every element it appends is the
// head a seq-only comparison put first, so the result is in seq order
// whatever order the runs were gathered in.
func mergeRuns(out []Pair, runs [][]Pair) []Pair {
	for len(runs) > 0 {
		lo := 0
		for i := 1; i < len(runs); i++ {
			if mergeKey(runs[i][0], runs[lo][0]) {
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

// Gathering the runs in receive order and merging them by seq is clean: the
// summary says mergeRuns does not relay its parameter's order.
func MergeRunsGood(ch chan []Pair) []Pair {
	var runs [][]Pair
	for run := range ch {
		runs = append(runs, run)
	}
	return mergeRuns(nil, runs)
}

// lessThenArrival orders by trigger only and breaks ties by the receive
// stamp: not a seq-only comparison.
func lessThenArrival(a, b Pair) bool {
	if a.RSeq != b.RSeq {
		return a.RSeq < b.RSeq
	}
	return a.Arrived < b.Arrived
}

// mergeRunsByArrival is the same loop over the tie-by-arrival comparator.
func mergeRunsByArrival(out []Pair, runs [][]Pair) []Pair {
	for len(runs) > 0 {
		lo := 0
		for i := 1; i < len(runs); i++ {
			if lessThenArrival(runs[i][0], runs[lo][0]) {
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

// A merge that breaks ties by channel-arrival order emits scheduling order
// wherever triggers tie: the helper relays its argument's taint.
func MergeRunsTieByArrival(ch chan []Pair) []Pair {
	var runs [][]Pair
	for run := range ch {
		runs = append(runs, run)
	}
	return mergeRunsByArrival(nil, runs) // want "merged result returned in arrival order"
}

// concatRuns chooses nothing at all.
func concatRuns(runs [][]Pair) []Pair {
	var out []Pair
	for _, run := range runs {
		out = append(out, run...)
	}
	return out
}

// Concatenating the runs in the order they were received is the plain
// relay: no receive in the helper, no sort or merge anywhere.
func MergeRunsConcat(ch chan []Pair) []Pair {
	var runs [][]Pair
	for run := range ch {
		runs = append(runs, run)
	}
	return concatRuns(runs) // want "merged result returned in arrival order"
}
