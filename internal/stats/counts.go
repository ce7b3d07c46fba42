package stats

import (
	"fmt"
	"slices"
)

// Counts is a frequency table of int values. Beside the table it keeps the
// smallest and largest value counted and the sum of the counts: derived
// state, kept by Add and rebuilt by CountsFrom, never written, by which a
// band that covers every value reads one number.
type Counts struct {
	m             map[int]int
	lo, hi, total int
}

// NewCounts returns an empty table.
func NewCounts() *Counts { return &Counts{m: map[int]int{}} }

// Add counts one more v.
func (c *Counts) Add(v int) { c.set(v, c.m[v]+1) }

// set makes v's count n.
func (c *Counts) set(v, n int) {
	if len(c.m) == 0 {
		c.lo, c.hi = v, v
	}
	c.lo, c.hi = min(c.lo, v), max(c.hi, v)
	c.total += n - c.m[v]
	c.m[v] = n
}

// Sorted lays the table out as parallel slices in ascending value order: the
// form a policy snapshot carries one in, because gob writes a Go map in
// iteration order and two snapshots of one state must be the same bytes.
func (c *Counts) Sorted() (vals, counts []int) {
	vals = make([]int, 0, len(c.m))
	for v := range c.m {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	counts = make([]int, len(vals))
	for i, v := range vals {
		counts[i] = c.m[v]
	}
	return vals, counts
}

// CountsFrom is the inverse of Sorted.
func CountsFrom(vals, counts []int) (*Counts, error) {
	if len(vals) != len(counts) {
		return nil, fmt.Errorf("stats: %d values with %d counts", len(vals), len(counts))
	}
	c := &Counts{m: make(map[int]int, len(vals))}
	for i, v := range vals {
		c.set(v, counts[i])
	}
	return c, nil
}

// BandCount sums the counts of the values within band of v. A band that
// covers every value counted reads the total. Otherwise it reads the values
// v−band..v+band one by one while there are no more of them than the table
// has entries, and the table's entries otherwise, so its cost is bounded by
// the values present whatever the band. The integer sum is the same in every
// order.
func (c *Counts) BandCount(v, band int) int {
	if v-band <= c.lo && v+band >= c.hi {
		return c.total
	}
	sum := 0
	if 2*band+1 <= len(c.m) {
		for k := v - band; k <= v+band; k++ {
			sum += c.m[k]
		}
		return sum
	}
	for k, n := range c.m {
		if k >= v-band && k <= v+band {
			sum += n
		}
	}
	return sum
}
