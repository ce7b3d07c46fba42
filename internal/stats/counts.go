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

// BandCount sums the counts of the values within band of v. It reads the
// values v−band..v+band one by one while there are no more of them than the
// table has entries, and the table's entries otherwise, so its cost is
// bounded by the values present whatever the band. The integer sum is the
// same in either order.
func BandCount(counts map[int]int, v, band int) int {
	sum := 0
	if 2*band+1 <= len(counts) {
		for k := v - band; k <= v+band; k++ {
			sum += counts[k]
		}
		return sum
	}
	for k, c := range counts {
		if k >= v-band && k <= v+band {
			sum += c
		}
	}
	return sum
}
