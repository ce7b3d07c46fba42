package engine

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

// CacheLen must be accurate on every path: before the first step, on steps
// that admit without evicting, and at capacity.
func TestMetricsCacheLenAlwaysCurrent(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Metrics().CacheLen; got != 0 {
		t.Fatalf("CacheLen before first step = %d, want 0", got)
	}
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	if got := j.Metrics().CacheLen; got != 2 {
		t.Fatalf("CacheLen after admit-only step = %d, want 2", got)
	}
	j.Step(Tuple{Key: 3}, Tuple{Key: 4})
	j.Step(Tuple{Key: 5}, Tuple{Key: 6}) // 6 candidates > 5 slots: evicts
	if got := j.Metrics().CacheLen; got != 5 {
		t.Fatalf("CacheLen at capacity = %d, want 5", got)
	}
}

func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	procs := trendProcs()
	j, err := NewJoin(Config{CacheSize: 4, Procs: procs, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(8)
	n := 400
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)
	for i := 0; i < n; i++ {
		j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
	}
	m := j.Metrics()
	snap := reg.Snapshot()
	if got := snap.Counters["engine_steps_total"]; got != int64(n) {
		t.Fatalf("steps counter = %d, want %d", got, n)
	}
	if got := snap.Counters["engine_pairs_total"]; got != int64(m.Pairs) {
		t.Fatalf("pairs counter = %d, metrics say %d", got, m.Pairs)
	}
	if got := snap.Counters["engine_evictions_total"]; got != int64(m.Evictions) {
		t.Fatalf("evictions counter = %d, metrics say %d", got, m.Evictions)
	}
	if got := snap.Histograms["engine_step_latency_ns"].Count; got != int64(n) {
		t.Fatalf("latency observations = %d, want %d", got, n)
	}
	// The operator instruments its policy: labeled HEEB metrics and trace records exist.
	if snap.Counters[`policy_decisions_total{policy="HEEB"}`] == 0 {
		t.Fatal("policy not instrumented")
	}
	if len(snap.Trace) == 0 {
		t.Fatal("no decision-trace records")
	}
	rec := snap.Trace[len(snap.Trace)-1]
	if rec.Policy != "HEEB" || len(rec.Candidates) == 0 {
		t.Fatalf("trace record = %+v", rec)
	}
}

// tapLog notes the step of every decision a policy is asked for, and a copy
// of the scores it compared at every TraceInterval-th.
type tapLog struct {
	steps  []int
	scores [][]float64
}

func (l *tapLog) note(t int, p join.Scorer) {
	if len(l.steps)%telemetry.TraceInterval == 0 {
		l.scores = append(l.scores, slices.Clone(p.Scores()))
	}
	l.steps = append(l.steps, t)
}

// heebTap and flowTap are the two scoring policies with their decisions
// noted; each keeps its policy's other methods (HEEB's snapshot among them).
type heebTap struct {
	*policy.HEEB
	tapLog
}

func (p *heebTap) Evict(st *join.State, cands []join.Tuple, n int) []int {
	ev := p.HEEB.Evict(st, cands, n)
	p.note(st.Time, p.HEEB)
	return ev
}

type flowTap struct {
	*policy.FlowExpect
	tapLog
}

func (p *flowTap) Evict(st *join.State, cands []join.Tuple, n int) []int {
	ev := p.FlowExpect.Evict(st, cands, n)
	p.note(st.Time, p.FlowExpect)
	return ev
}

// With a registry the operator traces exactly its decisions 1, 65, 129, …,
// each record holding the very scores the traced decision compared; its
// counters equal Metrics(), and it emits the same pairs and writes the same
// checkpoint as without one.
func TestTelemetryTracesEveryIntervalthDecision(t *testing.T) {
	procs := trendProcs()
	rng := stats.NewRNG(8)
	const n = 3000
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)
	heeb := func() (join.Policy, *tapLog) {
		p := &heebTap{HEEB: policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 4})}
		return p, &p.tapLog
	}
	for _, tc := range []struct {
		name          string
		cache, window int
		mk            func() (join.Policy, *tapLog)
	}{
		{"heeb", 4, 0, heeb},
		{"heeb-adaptive", 4, 0, func() (join.Policy, *tapLog) {
			p := &heebTap{HEEB: policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 4, Adaptive: true})}
			return p, &p.tapLog
		}},
		{"flowexpect", 4, 0, func() (join.Policy, *tapLog) {
			p := &flowTap{FlowExpect: &policy.FlowExpect{Lookahead: 3}}
			return p, &p.tapLog
		}},
		// A window that both expires entries and leaves decisions to make:
		// the one row whose engine_expired_total is not 0.
		{"heeb-window", 5, 2, heeb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(reg *telemetry.Registry) (*Join, *tapLog) {
				pol, tap := tc.mk()
				j, err := NewJoin(Config{CacheSize: tc.cache, Window: tc.window, Procs: procs, Seed: 1, Policy: pol, Telemetry: reg})
				if err != nil {
					t.Fatal(err)
				}
				return j, tap
			}
			reg := telemetry.NewRegistry()
			on, tap := mk(reg)
			off, _ := mk(nil)
			for i := 0; i < n; i++ {
				a := on.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
				if b := off.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]}); !slices.Equal(a, b) {
					t.Fatalf("step %d: telemetry on emitted %v, off %v", i, a, b)
				}
			}
			var ckOn, ckOff bytes.Buffer
			if err := on.Checkpoint(&ckOn); err != nil {
				t.Fatal(err)
			}
			if err := off.Checkpoint(&ckOff); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckOn.Bytes(), ckOff.Bytes()) {
				t.Fatal("checkpoints differ with telemetry on and off")
			}

			var want, got []int
			for k := 0; k < len(tap.steps); k += telemetry.TraceInterval {
				want = append(want, tap.steps[k])
			}
			recs := reg.Trace().Records()
			for _, rec := range recs {
				got = append(got, rec.Step)
			}
			if len(want) < 3 || !slices.Equal(got, want) {
				t.Fatalf("traced decisions at steps %v, want %v (every %dth of %d decisions)", got, want, telemetry.TraceInterval, len(tap.steps))
			}
			nonZero := 0
			for k, rec := range recs {
				if len(rec.Candidates) != len(tap.scores[k]) {
					t.Fatalf("record %d: %d candidates, the decision scored %d", k, len(rec.Candidates), len(tap.scores[k]))
				}
				for i, c := range rec.Candidates {
					if math.Float64bits(c.Score) != math.Float64bits(tap.scores[k][i]) {
						t.Fatalf("record %d candidate %d: traced score %v, the decision compared %v", k, i, c.Score, tap.scores[k][i])
					}
					if c.Score != 0 {
						nonZero++
					}
				}
			}
			if nonZero == 0 {
				t.Fatal("every traced score is 0: the records show nothing compared")
			}

			name := on.policy.Name()
			m, c := on.Metrics(), reg.Snapshot().Counters
			if tc.window > 0 && m.Expired == 0 {
				t.Fatal("the window expired nothing: engine_expired_total is compared at 0")
			}
			for metric, want := range map[string]int{
				"engine_steps_total":                            m.Steps,
				"engine_pairs_total":                            m.Pairs,
				"engine_evictions_total":                        m.Evictions,
				"engine_expired_total":                          m.Expired,
				`policy_evictions_total{policy="` + name + `"}`: m.Evictions,
				`policy_decisions_total{policy="` + name + `"}`: len(tap.steps),
			} {
				if c[metric] != int64(want) {
					t.Errorf("%s = %d, want %d", metric, c[metric], want)
				}
			}
		})
	}
}

func TestEngineWithoutTelemetryStaysBare(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if j.stepLatency != nil || j.stepCount != nil {
		t.Fatal("handles resolved without a registry")
	}
	j.Step(Tuple{Key: 1}, Tuple{Key: 1}) // record() must be a no-op, not a panic
}

// Two operators sharing one registry, stepping in parallel while a third
// goroutine snapshots — the satellite's -race coverage for concurrent
// registry use.
func TestConcurrentEnginesSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	procs := trendProcs()
	const n = 300
	mk := func(seed uint64) (*Join, []int, []int) {
		j, err := NewJoin(Config{CacheSize: 4, Procs: procs, Seed: seed, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed + 100)
		return j, procs[0].Generate(rng.Split(), n), procs[1].Generate(rng.Split(), n)
	}
	j1, r1, s1 := mk(1)
	j2, r2, s2 := mk(2)

	var wg sync.WaitGroup
	step := func(j *Join, r, s []int) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
		}
	}
	done := make(chan struct{})
	wg.Add(2)
	go step(j1, r1, s1)
	go step(j2, r2, s2)
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				snap := reg.Snapshot()
				h := snap.Histograms["engine_step_latency_ns"]
				var sum int64
				for _, c := range h.Counts {
					sum += c
				}
				if sum != h.Count {
					panic("torn histogram snapshot")
				}
			}
		}
	}()
	wg.Wait()
	close(done)

	snap := reg.Snapshot()
	if got := snap.Counters["engine_steps_total"]; got != 2*n {
		t.Fatalf("steps counter = %d, want %d", got, 2*n)
	}
	wantPairs := int64(j1.Metrics().Pairs + j2.Metrics().Pairs)
	if got := snap.Counters["engine_pairs_total"]; got != wantPairs {
		t.Fatalf("pairs counter = %d, want %d", got, wantPairs)
	}
	if got := snap.Histograms["engine_step_latency_ns"].Count; got != 2*n {
		t.Fatalf("latency observations = %d, want %d", got, 2*n)
	}
}
