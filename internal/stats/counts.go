package stats

import (
	"fmt"
	"slices"
)

// SortedCounts lays a frequency table out as parallel slices in ascending
// value order: the form a policy snapshot carries one in, because gob writes a
// Go map in iteration order and two snapshots of one state must be the same
// bytes.
func SortedCounts(m map[int]int) (vals, counts []int) {
	vals = make([]int, 0, len(m))
	for v := range m {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	counts = make([]int, len(vals))
	for i, v := range vals {
		counts[i] = m[v]
	}
	return vals, counts
}

// CountsFrom is the inverse of SortedCounts.
func CountsFrom(vals, counts []int) (map[int]int, error) {
	if len(vals) != len(counts) {
		return nil, fmt.Errorf("stats: %d values with %d counts", len(vals), len(counts))
	}
	m := make(map[int]int, len(vals))
	for i, v := range vals {
		m[v] = counts[i]
	}
	return m, nil
}
