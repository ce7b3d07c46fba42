package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// The host this benchmark is accepted on gives it two vCPUs on physical
// cores that other tenants share. While a neighbour is busy on the same core
// everything here runs ~1.65x slower, for stretches of 0.1 s to many
// seconds that cover anything from a tenth to over nine tenths of a run:
// batch latency is cleanly bimodal, and any statistic over a whole phase —
// mean, median or tail — measures the neighbour's duty cycle (same binary,
// same seed, a quarter apart from one minute to the next).
//
// So the steady phase carries a detector. A probe — a fixed, branch-free
// loop of eight independent integer chains — runs between every two batches.
// It keeps every ALU port busy, which makes it 1.5-2.2x slower when a second
// thread shares the core, and it touches no memory and takes no lock, so
// nothing the program under test does moves it. A batch counts when the
// probes around it ran at full speed; the timed end-to-end metrics are
// computed over the batches that count. The selection looks only at the
// probes, never at how long the batch itself took: a stall of the program's
// own stays in the numbers whenever the core was undisturbed.
//
// What the detector cannot see: contention on the shared last-level cache
// and memory system, which slows the memory-bound workloads for minutes to
// an hour at a time and leaves nothing inside a run to select.

// probeRounds and probeIters size the probe: three back-to-back rounds of
// the kernel, ~20 us each, of which the fastest is the reading. A neighbour
// on the core slows all three; the kernel's own work on the reply that just
// arrived (softirqs, timers) hits one and is ignored. Together they cost
// under a tenth of the cheapest workload's batch.
const (
	probeRounds = 3
	probeIters  = 15000
)

var probeSink uint64

// probe returns the host's speed right now, as the time of the fastest of
// probeRounds runs of the kernel.
func probe() time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		a, b, c, d, e, f, g, h := probeSink, uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7)
		for i := uint64(0); i < probeIters; i++ {
			a += i ^ b
			b ^= i + 3
			c += i | 5
			d ^= i + c
			e += i ^ 9
			f ^= i + e
			g += i & 0xff
			h ^= i + g
		}
		probeSink = a + b + c + d + e + f + g + h
		best = min(best, time.Since(t0))
	}
	return best
}

// probeSlack is how far above the run's fastest probe (its floor: the
// full-speed reading, since interference only ever slows a probe down) one
// may read and still count as full speed. Undisturbed probes scatter within
// ~15% of the floor; with a neighbour on the core they read 1.4-2.2x.
const probeSlack = 1.25

// minCounted is the fewest intervals a statistic is taken from.
const minCounted = 32

// counted picks, from n intervals separated by n+1 probes (probes[i] before
// interval i, probes[i+1] after it), the ones the timed statistics use:
// every interval whose two probes before and two probes after all read full
// speed — so the neighbours of a disturbed interval do not count either —
// topped up, when the host left fewer than minCounted of those, with the
// least disturbed of the rest, ranked by the slowest of their four probes.
// quiet is how many of the picked had all four at full speed.
func counted(probes []time.Duration, floor time.Duration) (idx []int, quiet int) {
	n := max(len(probes)-1, 0)
	worst := func(i int) time.Duration { return slices.Max(probes[max(i-1, 0):min(i+3, n+1)]) }
	idx = make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return worst(idx[a]) < worst(idx[b]) })
	limit := time.Duration(float64(floor) * probeSlack)
	quiet = sort.Search(n, func(k int) bool { return worst(idx[k]) > limit })
	return idx[:max(quiet, min(minCounted, n))], quiet
}
