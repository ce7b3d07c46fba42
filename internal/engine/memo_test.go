package engine

import (
	"bytes"
	"os"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// The score table lives as long as the operator, so what bounds it must not
// be the length of the run. Only non-zero scores are kept, and a score is zero
// outside the window's support; the table is dense over the coordinates it has
// been asked to keep plus a margin, so over 2·10^5 steps its slots against a
// stream never outnumber twice the values between the first forecast's
// support and the last's, plus the margins (a walk's last forecast contains
// all the others; a trend's is the first moved along the slope). A trend
// carries every value through the same coordinates, so its table has grown
// for the last time long before the halfway mark and stays exactly that
// length; two free walks drift apart and come back, and theirs only ever
// fills in.
func TestMemoBoundedBySupport(t *testing.T) {
	const n = 200_000
	for name, procs := range map[string][2]process.Process{
		"walk":  workload.Walk().Procs,
		"trend": workload.TrendSpec{Lag: 1, RBound: 40, SBound: 60, RSigma: 13.2, SSigma: 20}.Join().Procs,
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(3)
			r, s := procs[0].Generate(rng.Split(), n), procs[1].Generate(rng.Split(), n)
			heeb := policy.NewHEEB(policy.HEEBOptions{})
			j, err := NewJoin(Config{CacheSize: 16, Procs: procs, Policy: heeb, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var half, hits [2]int
			for i := 0; i < n; i++ {
				j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
				fc := heeb.Forecasts()
				for _, st := range []core.StreamID{core.StreamR, core.StreamS} {
					if fc.Len(st) == 0 {
						continue // nothing scored against this stream yet
					}
					lo, hi := fc.At(st, 1).Support()
					lastLo, lastHi := fc.At(st, fc.Len(st)).Support()
					span := max(hi, lastHi) - min(lo, lastLo) + 1
					entries, slots, h := fc.Memo(st)
					if entries > span || slots > 2*span+64 {
						t.Fatalf("step %d: %d scores kept in %d slots against stream %v, whose window spans %d values", i, entries, slots, st, span)
					}
					hits[st] = h
					if i == n/2-1 {
						half[st] = slots
					}
				}
			}
			for st, h := range hits {
				entries, slots, _ := heeb.Forecasts().Memo(core.StreamID(st))
				if h == 0 || entries == 0 {
					t.Fatalf("stream %d: table unused (%d entries, %d hits)", st, entries, h)
				}
				if name == "trend" && slots != half[st] {
					t.Fatalf("stream %d: %d slots at step %d, %d at step %d", st, half[st], n/2, slots, n)
				}
			}
		})
	}
}

// testdata/upgrade/heeb_pr12.ckpt is an engine checkpoint written by the
// commit before HEEB's scoring modes were removed: TOWER, cache 8, seed 9,
// taken after step 300 of stats.NewRNG(77)'s streams, by a policy that scored
// the first 260 steps value-incrementally and the rest time-incrementally, so
// that its state carries both dropped memos (8 Inc entries, 14+11 OffsetH
// entries). It restores here, the memos fall away, and the run continues as
// one that was never interrupted: same pairs, step for step, and the same
// final checkpoint once both caches are read in ID order — the file predates
// the slot table (PR 27) and restores as the ID-ordered layout it lists, the
// uninterrupted run has the layout its own evictions left, and a scored
// policy does not read positions.
func TestRestoreParentCommitHEEBCheckpoint(t *testing.T) {
	old, err := os.ReadFile("testdata/upgrade/heeb_pr12.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	const n, at = 900, 300
	w := workload.Tower().Join()
	mk := func() *Join {
		j, err := NewJoin(Config{CacheSize: 8, Procs: w.Procs, Policy: w.HEEBPolicy(), Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	r, s := w.Generate(stats.NewRNG(77), n)
	whole, resumed := mk(), mk()
	for i := 0; i < at; i++ {
		whole.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
	}
	if err := resumed.Restore(bytes.NewReader(old)); err != nil {
		t.Fatalf("restoring the parent commit's checkpoint: %v", err)
	}
	for i := at; i < n; i++ {
		pw := whole.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
		pr := resumed.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
		if !pairsEqual(pw, pr) {
			t.Fatalf("step %d pairs diverge:\n  uninterrupted %v\n  restored      %v", i, pw, pr)
		}
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointByID(t, whole), checkpointByID(t, resumed)) {
		t.Fatal("final checkpoints, caches in ID order, differ between the uninterrupted and the restored run")
	}
}
