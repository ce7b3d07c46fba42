package engine

import (
	"bytes"
	"errors"
	"testing"

	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// FuzzStepEquivalence fuzzes the indexed operator against the reference
// oracle over short random traces. cfgBits packs the configuration so every
// corpus entry is two uint64s:
//
//	bits 0..4   cache size − 1   (1..32)
//	bits 5..9   window           (0..31; 0 disables)
//	bits 10..11 band             (0..3)
//	bits 12..13 policy           (0 HEEB, 1 PROB, 2 RAND, 3 HEEB vs its NoMemo path)
//	bit  14     key source       (0 model trace, 1 raw small-domain keys)
//	bit  15     jumps            (1: every eighth key or so moved by ±100..400)
//	bits 16..17 ignored          (they chose budget changes while the operator had any;
//	                             kept so that every committed corpus entry still decodes)
//	bits 18..19 restores         (0..3, at steps the seed picks: Checkpoint → Restore into
//	                             a freshly built operator, which carries on against the same oracle)
//	bit  20     one-sided        (1: about a third of the steps carry one side's arrival, and
//	                             about a quarter skip 1..3 steps of the clock, as a shard's do)
//
// Raw small-domain keys maximize match density and occasionally inject
// NoValue arrivals, exercising the index's refusal to post them. Jumps carry
// keys further than the forecast windows span (74 and 84 values under the
// policies' L), in both directions, so HEEB's score tables see coordinates
// far apart and far outside every support. Restores are where the slot layout
// is at stake: a layout that does not survive a checkpoint diverges here.
// One-sided steps are a shard's: one arrival decided among the cached tuples,
// no slot for the other side, and the clock moved past the steps skipped.
func FuzzStepEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(2), uint64(1<<14|3|7<<5))                // cache 4, window 7, raw keys
	f.Add(uint64(3), uint64(15|2<<10))                    // cache 16, band 2
	f.Add(uint64(4), uint64(7|12<<5|1<<10))               // cache 8, window 12, band 1
	f.Add(uint64(5), uint64(31|1<<12))                    // cache 32, PROB
	f.Add(uint64(6), uint64(9|2<<12|1<<14))               // cache 10, RAND, raw keys
	f.Add(uint64(7), uint64(15|3<<12))                    // cache 16, HEEB window vs NoMemo
	f.Add(uint64(8), uint64(3|20<<5|3<<10|1<<12|1<<14))   // kitchen sink
	f.Add(uint64(9), uint64(15|3<<12|1<<15))              // cache 16, HEEB window vs NoMemo, jumping keys
	f.Add(uint64(10), uint64(7|2<<10|1<<15))              // cache 8, band 2, HEEB, jumping keys
	f.Add(uint64(11), uint64(7|1<<20))                    // cache 8, HEEB, one-sided
	f.Add(uint64(12), uint64(5|9<<5|2<<12|1<<14|1<<20))   // cache 6, window 9, RAND, raw keys, one-sided
	f.Add(uint64(13), uint64(11|1<<12|1<<14|2<<18|1<<20)) // cache 12, PROB, raw keys, two restores, one-sided
	f.Add(uint64(14), uint64(15|6<<5|1<<10|3<<12|1<<20))  // cache 16, window 6, band 1, HEEB vs NoMemo, one-sided
	f.Fuzz(func(t *testing.T, seed, cfgBits uint64) {
		cacheSize := int(cfgBits&31) + 1
		window := int(cfgBits >> 5 & 31)
		band := int(cfgBits >> 10 & 3)
		polSel := int(cfgBits >> 12 & 3)
		rawKeys := cfgBits>>14&1 == 1
		jumps := cfgBits>>15&1 == 1
		restores := int(cfgBits >> 18 & 3)
		oneSided := cfgBits>>20&1 == 1
		const n = 250

		procs := trendProcs()
		var r, s []int
		if rawKeys {
			rng := stats.NewRNG(seed)
			r, s = make([]int, n), make([]int, n)
			for i := 0; i < n; i++ {
				r[i], s[i] = rng.IntN(24), rng.IntN(24)
				if rng.IntN(16) == 0 {
					r[i] = process.NoValue
				}
				if rng.IntN(16) == 0 {
					s[i] = process.NoValue
				}
			}
		} else {
			rng := stats.NewRNG(seed)
			r = procs[0].Generate(rng.Split(), n)
			s = procs[1].Generate(rng.Split(), n)
		}
		if jumps {
			rng := stats.NewRNG(seed ^ 0x6a)
			for _, keys := range [][]int{r, s} {
				for i := range keys {
					if keys[i] != process.NoValue && rng.IntN(8) == 0 {
						keys[i] += (rng.IntN(2)*2 - 1) * (100 + rng.IntN(301))
					}
				}
			}
		}

		mk := func(ref bool) join.Policy {
			switch polSel {
			case 1:
				return &policy.Prob{}
			case 2:
				return &policy.Rand{}
			case 3:
				// The forecast window against the seed scoring path.
				return policy.NewHEEB(policy.HEEBOptions{
					LifetimeEstimate: 3, NoMemo: ref,
				})
			default:
				return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 3})
			}
		}
		cfg := Config{CacheSize: cacheSize, Window: window, Band: band, Seed: seed}
		if polSel == 0 || polSel == 3 {
			cfg.Procs = procs
		}
		cfgOp, cfgRef := cfg, cfg
		cfgOp.Policy, cfgRef.Policy = mk(false), mk(true)
		op, err := NewJoin(cfgOp)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReferenceJoin(cfgRef)
		if err != nil {
			t.Fatal(err)
		}
		restoreAt := map[int]bool{}
		events := stats.NewRNG(seed ^ 0x27)
		for k := 0; k < restores; k++ {
			restoreAt[events.IntN(n)] = true
		}
		for i := 0; i < n; i++ {
			if restoreAt[i] {
				var ckpt bytes.Buffer
				if err := op.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				cfgOp.Policy = mk(false)
				if op, err = NewJoin(cfgOp); err != nil {
					t.Fatal(err)
				}
				if err := errors.Join(op.Restore(&ckpt), op.CheckInvariants()); err != nil {
					t.Fatalf("step %d: restoring into a fresh operator: %v", i, err)
				}
			}
			tp := TuplePair{R: Tuple{Key: r[i], Seq: uint64(2 * i)}, S: Tuple{Key: s[i], Seq: uint64(2*i + 1)}}
			if oneSided {
				tp.Arrivals = Arrivals(events.IntN(3))
				if events.IntN(4) == 0 {
					tp.Skip = 1 + events.IntN(3)
				}
			}
			po := op.StepBatch([]TuplePair{tp})
			pr := ref.StepTuplePair(tp)
			if !pairsEqual(po, pr) {
				t.Fatalf("step %d pairs diverge (cache %d window %d band %d pol %d raw %v):\n  op  %v\n  ref %v",
					i, cacheSize, window, band, polSel, rawKeys, po, pr)
			}
		}
		if !snapshotsEqual(op.Snapshot(), ref.Snapshot()) {
			t.Fatalf("final caches diverge:\n  op  %v\n  ref %v", op.Snapshot(), ref.Snapshot())
		}
		if op.Metrics() != ref.Metrics() {
			t.Fatalf("metrics diverge:\n  op  %+v\n  ref %+v", op.Metrics(), ref.Metrics())
		}
	})
}
