package engine

import (
	"testing"

	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// TestEquiIndexFixedSize: the equi index is two tables sized once, whatever
// the keys do.
//
// drift: the key domain first alternates between 4 keys (long chains) and 64
// (chains thin out and cells empty, by eviction and by window expiry), then
// drifts upward for 10^5 steps like a trend's, every key new for a while and
// then never seen again — 25 000 keys through tables of 64 cells. After every
// step the index agrees with the cache (CheckInvariants) and each table has
// the length and the backing array it was built with; warmed steps allocate
// nothing.
//
// colliding-keys: keys picked, with the seed in hand, so that every one of
// them starts its probe at the same cell — the last, so the run wraps — cost
// longer probes, never different results: step for step the operator equals
// ReferenceJoin, through evictions and window expiry, with the index checked
// every step.
func TestEquiIndexFixedSize(t *testing.T) {
	t.Run("drift", func(t *testing.T) {
		const budget = 24
		j, err := NewJoin(Config{CacheSize: budget, Window: 60, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		size, first := len(j.equi[0].cells), [2]*keyCell{&j.equi[0].cells[0], &j.equi[1].cells[0]}
		if size != 64 {
			t.Fatalf("a %d-slot budget built a table of %d cells, want 64", budget, size)
		}
		check := func(phase string, step int) {
			if err := j.CheckInvariants(); err != nil {
				t.Fatalf("%s step %d: %v", phase, step, err)
			}
			for side, x := range j.equi {
				if len(x.cells) != size || &x.cells[0] != first[side] {
					t.Fatalf("%s step %d: side %d's table was rebuilt (%d cells)", phase, step, side, len(x.cells))
				}
			}
		}
		rng := stats.NewRNG(11)
		for step := 0; step < 6000; step++ {
			keys := 4
			if step/150%2 == 1 {
				keys = 64
			}
			j.Step(Tuple{Key: rng.IntN(keys)}, Tuple{Key: rng.IntN(keys)})
			check("alternating", step)
		}
		drift := func(step int) (Tuple, Tuple) {
			return Tuple{Key: step/4 + rng.IntN(8)}, Tuple{Key: step/4 + rng.IntN(8)}
		}
		const steps = 100000
		for step := 0; step < steps; step++ {
			j.Step(drift(step))
			check("drifting", step)
		}
		if m := j.Metrics(); m.Pairs == 0 || m.Expired == 0 || m.Evictions == 0 {
			t.Fatalf("want matches, expiries and evictions: %+v", m)
		}
		step := steps
		if allocs := testing.AllocsPerRun(1000, func() { j.Step(drift(step)); step++ }); allocs != 0 {
			t.Errorf("a warmed step allocates %.0f times", allocs)
		}
	})

	t.Run("colliding-keys", func(t *testing.T) {
		const budget = 16
		cfg := Config{CacheSize: budget, Window: 40, Seed: 5}
		op, err := NewJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReferenceJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each table draws its own seed; hash both alike (they are empty) so
		// that the keys collide in the table of either stream.
		op.equi[1].seed = op.equi[0].seed
		last := len(op.equi[0].cells) - 1
		keys := collidingKeys(&op.equi[0], last, 40)
		rng := stats.NewRNG(13)
		longest := 0
		for step := 0; step < 4000; step++ {
			r := Tuple{Key: int(keys[rng.IntN(len(keys))]), Seq: uint64(2 * step)}
			s := Tuple{Key: int(keys[rng.IntN(len(keys))]), Seq: uint64(2*step + 1)}
			po, pr := op.Step(r, s), ref.Step(r, s)
			if !pairsEqual(po, pr) {
				t.Fatalf("step %d pairs diverge:\n  op  %v\n  ref %v", step, po, pr)
			}
			if err := op.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for _, x := range op.equi {
				run := 0
				for run <= last && x.cells[(last+run)&last].key != process.NoValue {
					run++
				}
				longest = max(longest, run)
			}
		}
		if !snapshotsEqual(op.Snapshot(), ref.Snapshot()) || op.Metrics() != ref.Metrics() {
			t.Fatalf("final state diverges:\n  op  %+v\n  ref %+v", op.Metrics(), ref.Metrics())
		}
		if longest < budget/2 {
			t.Fatalf("the longest probe run from the shared home cell was %d cells; the keys did not collide", longest)
		}
	})
}
