package engine

import (
	"reflect"
	"slices"
	"testing"

	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
	"stochstream/internal/workload"
)

// TestRunMatchesSimulator holds Run, which steps the operator, to simulate,
// the linear-scan loop it replaced: every policy of internal/policy, on equi,
// band and two sliding-window joins, seeds 1–5. Without a window the two
// Results are equal field for field. Under a window the operator prunes
// expired tuples before each decision, while the oracle keeps them in their
// slots, offers them to the policy and counts their discard. On "window-slack"
// the budget holds exactly the tuples a window of 2 keeps joinable (three
// steps of arrivals), so the operator never has to choose. The fields that
// differ, and why:
//   - Evictions, for every policy but Clairvoyant: the oracle counts the
//     discards of expired tuples, the operator counts them in
//     Metrics.Expired. Clairvoyant discards every tuple at its last scheduled
//     match, before it can expire, so no field of its differs;
//   - OccupancyR, for RAND: a tuple of age 2 has lifetime 0, so on
//     window-slack the oracle's RAND draws among four dead candidates and may
//     keep an expired tuple instead of one of age 2 — neither joins again,
//     but the R share moves;
//   - Joins, TotalJoins and OccupancyR, for RESERVOIR: its admission rule
//     ignores the window, so the oracle's reservoir holds expired tuples in
//     slots the operator gives to live ones, and on window-slack the operator
//     never asks it at all.
//
// PROB, LIFE, HEEB and FlowExpect score a dead tuple lowest and the dead are
// the oldest, so ties go to them: they keep the same live tuples either way,
// and only Evictions differs.
func TestRunMatchesSimulator(t *testing.T) {
	w := workload.Tower().Join()
	kinds := []struct {
		name string
		cfg  join.Config
	}{
		{"equi", join.Config{CacheSize: 6, Warmup: -1, Procs: w.Procs, TrackOccupancy: true}},
		{"band", join.Config{CacheSize: 6, Warmup: -1, Band: 2, Procs: w.Procs, TrackOccupancy: true}},
		{"window", join.Config{CacheSize: 6, Warmup: -1, Window: 3, Procs: w.Procs, TrackOccupancy: true}},
		{"window-slack", join.Config{CacheSize: 6, Warmup: -1, Window: 2, Procs: w.Procs, TrackOccupancy: true}},
	}
	// RAND, PROB and LIFE read the window as the tuples' lifetime where there
	// is one, and the workload's pseudo-window otherwise.
	lifetime := func(cfg join.Config) policy.Lifetime {
		if cfg.Window == 0 {
			return w.Lifetime
		}
		return func(now int, tp join.Tuple) int { return tp.Arrived + cfg.Window - now }
	}
	evictions := []string{"Evictions"}
	policies := []struct {
		name string
		n    int // stream length
		mk   func(r, s []int, cfg join.Config) join.Policy
		// windowed names the fields that differ under a window.
		windowed []string
	}{
		{"RAND", 400, func(_, _ []int, cfg join.Config) join.Policy { return &policy.Rand{Lifetime: lifetime(cfg)} }, []string{"OccupancyR", "Evictions"}},
		{"PROB", 400, func(_, _ []int, cfg join.Config) join.Policy { return &policy.Prob{Lifetime: lifetime(cfg)} }, evictions},
		{"LIFE", 400, func(_, _ []int, cfg join.Config) join.Policy { return &policy.Life{Lifetime: lifetime(cfg)} }, evictions},
		{"HEEB", 400, func(_, _ []int, _ join.Config) join.Policy { return w.HEEBPolicy() }, evictions},
		{"FLOWEXPECT", 80, func(_, _ []int, _ join.Config) join.Policy { return &policy.FlowExpect{Lookahead: 3} }, evictions},
		{"RESERVOIR", 400, func(_, _ []int, _ join.Config) join.Policy { return &policy.Reservoir{} }, []string{"Joins", "TotalJoins", "OccupancyR", "Evictions"}},
		{"OPT-OFFLINE", 400, func(r, s []int, _ join.Config) join.Policy { return &policy.Clairvoyant{R: r, S: s} }, nil},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			differed := map[string]bool{}
			for _, kind := range kinds {
				var may []string
				if kind.cfg.Window > 0 {
					may = pc.windowed
				}
				for seed := uint64(1); seed <= 5; seed++ {
					r, s := w.Generate(stats.NewRNG(seed), pc.n)
					got := Run(r, s, pc.mk(r, s, kind.cfg), kind.cfg, stats.NewRNG(seed+100))
					sim := simulate(r, s, pc.mk(r, s, kind.cfg), kind.cfg, stats.NewRNG(seed+100))
					if got.TotalJoins == 0 {
						t.Fatalf("%s seed %d: no joins; the comparison is vacuous", kind.name, seed)
					}
					for _, f := range resultDiff(got, sim) {
						if !slices.Contains(may, f) {
							t.Fatalf("%s seed %d: %s differs: Run %v, simulator %v", kind.name, seed, f,
								reflect.ValueOf(got).FieldByName(f), reflect.ValueOf(sim).FieldByName(f))
						}
						differed[f] = true
					}
				}
			}
			for _, f := range pc.windowed {
				if !differed[f] {
					t.Errorf("%s never differs: the comment above is stale", f)
				}
			}
		})
	}
}

// resultDiff names the fields of two Results that differ.
func resultDiff(a, b join.Result) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// An eager evictor is asked at every step, even below the budget, and may
// discard more than the overflow; what it discards leaves the cache, and a
// slot no arrival takes closes.
func TestRunHonoursEagerEvictor(t *testing.T) {
	r := []int{1, 0, 1}
	s := []int{9, 1, 1}
	res := Run(r, s, dropAll{}, join.Config{CacheSize: 100}, stats.NewRNG(1))
	if res.TotalJoins != 0 || res.Evictions != 6 {
		t.Fatalf("dropping everything every step: joins %d, evictions %d, want 0 and 6", res.TotalJoins, res.Evictions)
	}
	// The telemetry wrapper hides nothing: the operator looks behind it.
	for _, reg := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		j, err := NewJoin(Config{CacheSize: 6, Policy: dropCachedEveryThird{}, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{2, 4, 2, 4, 6, 2, 4} {
			j.Step(Tuple{Key: i % 2}, Tuple{Key: i % 3})
			if err := j.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if got := j.Metrics().CacheLen; got != want {
				t.Fatalf("step %d: cache holds %d, want %d", i, got, want)
			}
		}
	}
	r, s = make([]int, 60), make([]int, 60)
	for i := range r {
		r[i], s[i] = i%4, i%3
	}
	cfg := join.Config{CacheSize: 6, Warmup: 5, TrackOccupancy: true}
	got, want := Run(r, s, dropCachedEveryThird{}, cfg, stats.NewRNG(1)), simulate(r, s, dropCachedEveryThird{}, cfg, stats.NewRNG(1))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run %+v, simulator %+v", got, want)
	}
}

// dropAll discards every candidate at every step.
type dropAll struct{}

func (dropAll) Name() string                  { return "drop-all" }
func (dropAll) Reset(join.Config, *stats.RNG) {}
func (dropAll) EagerEvict()                   {}
func (dropAll) Evict(_ *join.State, cands []join.Tuple, _ int) []int {
	out := make([]int, len(cands))
	for i := range out {
		out[i] = i
	}
	return out
}

// dropCachedEveryThird discards every cached candidate at every third step
// and nothing otherwise: at those steps its victims outnumber the arrivals
// that take their slots.
type dropCachedEveryThird struct{}

func (dropCachedEveryThird) Name() string                  { return "drop-cached" }
func (dropCachedEveryThird) Reset(join.Config, *stats.RNG) {}
func (dropCachedEveryThird) EagerEvict()                   {}
func (dropCachedEveryThird) Evict(st *join.State, cands []join.Tuple, _ int) []int {
	var out []int
	for i, c := range cands {
		if st.Time%3 == 2 && c.Arrived < st.Time {
			out = append(out, i)
		}
	}
	return out
}
