package telemetry

import (
	"math"
	"sync/atomic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// latencyBounds are the histogram buckets: log-spaced with ten buckets per
// decade from 100 ns to 10 s. They cover everything from a single
// atomic increment to a full FlowExpect solve while keeping quantile
// interpolation error at the bucket ratio (≈ 26%).
var latencyBounds = func() []float64 {
	var b []float64
	for e := 2; e < 10; e++ { // 1e2 .. 1e9 ns
		for i := 0; i < 10; i++ {
			b = append(b, math.Pow(10, float64(e)+float64(i)/10))
		}
	}
	return append(b, 1e10)
}()

// Histogram is a fixed-bucket histogram with atomic, allocation-free
// observation. Bucket bounds are immutable after construction; counts, the
// running sum and the observation count are all atomics, so Observe never
// locks and Snapshot never blocks writers.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; implicit +Inf last
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the log-spaced latency buckets
// (nanoseconds).
func NewHistogram() *Histogram {
	return &Histogram{bounds: latencyBounds, counts: make([]atomic.Int64, len(latencyBounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a latency given in nanoseconds.
func (h *Histogram) ObserveDuration(ns int64) { h.Observe(float64(ns)) }

// HistogramSnapshot is a consistent-enough point-in-time view: bucket counts
// are read one atomic at a time, so a snapshot taken mid-write may be off by
// the writes in flight, but it never tears a single bucket and the total is
// always the sum of the buckets it reports.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1, last is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Snapshot captures the histogram's current state and derives p50/p90/p99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts)), Sum: bitsFloat(h.sum.Load())}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket that contains it. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := lo
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		} else if len(s.Bounds) > 0 {
			// +Inf bucket: extrapolate one bucket ratio past the last bound.
			hi = s.Bounds[len(s.Bounds)-1] * 2
		}
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}
