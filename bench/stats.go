package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted data.
func percentile(sortedXs []float64, p float64) float64 {
	if len(sortedXs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sortedXs)))) - 1
	if i < 0 {
		i = 0
	}
	return sortedXs[i]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (its default, exclusive method), which is what the driver that
// accepts the benchmark computes spreads from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the runtime's estimate of CPU time spent collecting.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
