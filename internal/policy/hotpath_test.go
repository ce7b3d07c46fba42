package policy

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// evictLowestSort is the seed implementation of victim selection — a full
// stable sort — kept as the reference the heap-based evictLowest is checked
// against.
func evictLowestSort(scores []float64, cands []join.Tuple, n int) []int {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] < scores[idx[b]]
		}
		return cands[idx[a]].ID < cands[idx[b]].ID
	})
	if n > len(idx) {
		n = len(idx)
	}
	return append([]int(nil), idx[:n]...)
}

// Property: the heap-based top-k selection returns exactly the full sort's
// first n entries, in the same order, across random score vectors with
// plenty of ties.
func TestEvictLowestMatchesSortReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := 1 + rng.IntN(40)
		n := rng.IntN(m + 2) // occasionally n > m
		cands := make([]join.Tuple, m)
		scores := make([]float64, m)
		for i := range cands {
			cands[i] = join.Tuple{ID: i, Value: rng.IntN(10), Arrived: i / 2}
			// Coarse quantization forces frequent score ties.
			scores[i] = float64(rng.IntN(5))
		}
		got := evictLowest(scores, cands, n, nil)
		want := evictLowestSort(scores, cands, n)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// One or two victims come out of a single scan, more out of the heap; on
// inputs that are mostly ties the scan's answer is the sort reference's and
// the leading part of the heap's answer for three, and it is written into
// the buffer handed in.
func TestEvictLowestScanMatchesHeapAndSort(t *testing.T) {
	rng := stats.NewRNG(77)
	dst := make([]int, 0, 2)
	for trial := 0; trial < 2000; trial++ {
		m := 4 + rng.IntN(60)
		cands := make([]join.Tuple, m)
		scores := make([]float64, m)
		for i := range cands {
			cands[i] = join.Tuple{ID: 1000 - i, Value: rng.IntN(10)} // IDs descending: position does not break ties
			scores[i] = float64(rng.IntN(3))
		}
		heap := evictLowest(scores, cands, 3, nil)
		for n := 1; n <= 2; n++ {
			got := evictLowest(scores, cands, n, dst)
			if want := evictLowestSort(scores, cands, n); !slices.Equal(got, want) {
				t.Fatalf("trial %d n %d: scan %v, sort %v (scores %v)", trial, n, got, want, scores)
			}
			if !slices.Equal(got, heap[:n]) {
				t.Fatalf("trial %d n %d: scan %v, heap %v (scores %v)", trial, n, got, heap[:n], scores)
			}
			if &got[0] != &dst[:1][0] {
				t.Fatalf("trial %d n %d: the answer is not in the buffer handed in", trial, n)
			}
		}
	}
}

// heebDecision builds a mid-run decision state: populated histories and a
// candidate set drawn from both streams.
func heebDecision(t *testing.T, seed uint64, window, band, n int) (*join.State, []join.Tuple) {
	t.Helper()
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(2, 9)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 11)},
	}
	rng := stats.NewRNG(seed)
	hists := [2]*process.History{
		process.NewHistory(procs[0].Generate(rng.Split(), 60)...),
		process.NewHistory(procs[1].Generate(rng.Split(), 60)...),
	}
	st := &join.State{
		Time:   59,
		Hists:  hists,
		Config: join.Config{CacheSize: n - 2, Window: window, Band: band, Procs: procs},
	}
	cands := make([]join.Tuple, n)
	for i := range cands {
		cands[i] = join.Tuple{
			ID:      i,
			Value:   40 + rng.IntN(30),
			Stream:  core.StreamID(i % 2),
			Arrived: 30 + rng.IntN(30),
		}
	}
	return st, cands
}

// memoHits is the number of scores p has answered from the window's memo.
func memoHits(p *HEEB) int {
	_, _, r := p.fc.Memo(core.StreamR)
	_, _, s := p.fc.Memo(core.StreamS)
	return r + s
}

// The window scorer (forecast window, its score memo and the L table) must
// score and evict bitwise-identically to the seed path (NoMemo) across
// window/band configs, on a first decision and on a second one that asks for
// the same sums again: at the same state, or — Corollary 5 — transfer steps
// later with every candidate carried along the trend, which changes each
// (value, time) and keeps each score.
func TestHEEBMemoMatchesNoMemo(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		window, band, transfer int
	}{
		{"direct-equi", 0, 0, 0},
		{"direct-band", 0, 3, 0},
		{"direct-window", 24, 0, 0},
		{"direct-window-band", 16, 2, 0},
		{"value-incremental", 0, 0, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, cands := heebDecision(t, 11, tc.window, tc.band, 34)
			mk := func(noMemo bool) *HEEB {
				p := NewHEEB(HEEBOptions{LifetimeEstimate: 6, NoMemo: noMemo})
				p.Reset(st.Config, stats.NewRNG(3))
				return p
			}
			opt, ref := mk(false), mk(true)
			decide := func() (nonZero int) {
				optEvict := opt.Evict(st, cands, 4)
				refEvict := ref.Evict(st, cands, 4)
				optScores, refScores := opt.Scores(), ref.Scores()
				if len(optScores) != len(cands) || len(refScores) != len(cands) {
					t.Fatalf("%d and %d scores for %d candidates", len(optScores), len(refScores), len(cands))
				}
				for i := range cands {
					if optScores[i] != refScores[i] {
						t.Fatalf("cand %d: memo score %v != reference %v", i, optScores[i], refScores[i])
					}
					if refScores[i] != 0 {
						nonZero++
					}
				}
				if len(optEvict) != len(refEvict) {
					t.Fatalf("evict lengths differ: %v vs %v", optEvict, refEvict)
				}
				for i := range optEvict {
					if optEvict[i] != refEvict[i] {
						t.Fatalf("evict[%d]: memo %d != reference %d", i, optEvict[i], refEvict[i])
					}
				}
				return nonZero
			}
			decide()
			for s, pr := range st.Config.Procs {
				lt := pr.(*process.LinearTrend)
				for k := 1; k <= tc.transfer; k++ {
					st.Hists[s].Append(lt.TrendAt(st.Time + k))
				}
				for i := range cands {
					if cands[i].Stream.Partner() == core.StreamID(s) {
						cands[i].Value += lt.Slope * tc.transfer // Corollary 5's value transfer
					}
				}
			}
			st.Time += tc.transfer
			before := memoHits(opt)
			nonZero := decide()
			// A clipped sum is never read from the memo; an unclipped one that
			// is not zero was stored by the first decision, so the second
			// decision's scoring is answered from it.
			want := nonZero
			if tc.window > 0 {
				want = 0
			}
			if got := memoHits(opt) - before; got != want || nonZero == 0 {
				t.Fatalf("second decision: %d memo hits, want %d (%d non-zero scores)", got, want, nonZero)
			}
		})
	}
}

// advancing returns a function that moves a decision state one step forward
// the way an operator does between decisions: one observation per stream,
// the clock, and the two oldest candidates replaced by the arrivals.
func advancing(st *join.State, cands []join.Tuple, rng *stats.RNG) func() {
	nextID := len(cands)
	return func() {
		st.Time++
		copy(cands, cands[2:])
		for s := 0; s < 2; s++ {
			lt := st.Config.Procs[s].(*process.LinearTrend)
			v := lt.TrendAt(st.Time) + dist.Sample(lt.Noise, rng.Float64())
			st.Hists[s].Append(v)
			cands[len(cands)-2+s] = join.Tuple{ID: nextID, Value: v, Stream: core.StreamID(s), Arrived: st.Time}
			nextID++
		}
	}
}

// A steady-state decision on trend models slides both forecast windows by one
// step in place and reads every score out of a table it has already filled:
// it allocates nothing, with a band and a sliding window (whose clipped sums
// go to the kernel) as without.
func TestHEEBSteadyStateEvictAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		window, band int
	}{{"equi", 0, 0}, {"band-window", 40, 2}} {
		st, cands := heebDecision(t, 17, tc.window, tc.band, 66)
		p := NewHEEB(HEEBOptions{LifetimeEstimate: 64})
		p.Reset(st.Config, stats.NewRNG(3))
		step := advancing(st, cands, stats.NewRNG(5))
		for i := 0; i < 50; i++ { // fill the windows, the score buffer and the histories' slack
			step()
			p.Evict(st, cands, 2)
		}
		if got := testing.AllocsPerRun(200, func() {
			step()
			p.Evict(st, cands, 2)
		}); got != 0 {
			t.Errorf("%s: steady-state Evict allocates %v times, want 0", tc.name, got)
		}
	}
}

// decisionLoop puts a policy through the decisions an operator of the given
// size would ask of it: every step both streams arrive, the policy picks two
// of cache + arrivals, and those leave.
type decisionLoop struct {
	st    *join.State
	cands []join.Tuple // the cache in ID order, with room for a step's arrivals
	in    [2][]int
}

// newDecisionLoop draws n steps of both models, restarting them every episode
// steps when episode > 0 (two free walks drift apart, and a decision between
// streams that no longer meet scores nothing).
func newDecisionLoop(procs [2]process.Process, slots, band, episode, n int, seed uint64) *decisionLoop {
	d := &decisionLoop{
		st: &join.State{
			Time:   -1,
			Hists:  [2]*process.History{process.NewHistory(), process.NewHistory()},
			Config: join.Config{CacheSize: slots, Band: band, Procs: procs},
		},
		cands: make([]join.Tuple, 0, slots+2),
	}
	if episode <= 0 {
		episode = n
	}
	rng := stats.NewRNG(seed)
	for len(d.in[0]) < n {
		for s, pr := range procs {
			d.in[s] = append(d.in[s], pr.Generate(rng.Split(), episode)...)
		}
	}
	return d
}

// arrive moves the loop to its next step: both arrivals join the histories
// and the candidates, and need is how many of those the policy must pick.
func (d *decisionLoop) arrive() (cands []join.Tuple, need int) {
	d.st.Time++
	t := d.st.Time
	for s := range d.in {
		v := d.in[s][t]
		d.st.Hists[s].Append(v)
		d.cands = append(d.cands, join.Tuple{ID: 2*t + s, Value: v, Stream: core.StreamID(s), Arrived: t})
	}
	return d.cands[:len(d.cands):len(d.cands)], len(d.cands) - d.st.Config.CacheSize
}

func (d *decisionLoop) decide(p join.Policy) {
	cands, need := d.arrive()
	if need <= 0 {
		return
	}
	evict := p.Evict(d.st, cands, need)
	kept := d.cands[:0]
	for i, c := range d.cands {
		if !slices.Contains(evict, i) {
			kept = append(kept, c)
		}
	}
	d.cands = kept
}

// heebDecisionConfigs are the decision shapes the ledger serves — `trend`'s
// one shard of 64 slots and one of `walk`'s four shards of 8, under the models
// of bench/workloads.go — and a band join over a cache four times the size.
var heebDecisionConfigs = []struct {
	name                 string
	procs                func() [2]process.Process
	slots, band, episode int
}{
	{"trend64", ledgerTrend, 64, 0, 0},
	{"walk8", func() [2]process.Process {
		return [2]process.Process{&process.GaussianWalk{Sigma: 1}, &process.GaussianWalk{Sigma: 1}}
	}, 8, 0, 128},
	{"band256", ledgerTrend, 256, 2, 0},
}

func ledgerTrend() [2]process.Process {
	return [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(13.2, 40)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(20, 60)},
	}
}

// Once the windows are full and the tables have grown over the coordinates
// the candidates take, a decision of the default policy allocates nothing:
// the windows move in place, every score is a table read or a sum kept in a
// slot that exists, and the answer goes into the policy's own buffer.
func TestHEEBDecisionAllocs(t *testing.T) {
	for _, tc := range heebDecisionConfigs[:2] {
		const warm, runs = 4096, 512
		d := newDecisionLoop(tc.procs(), tc.slots, tc.band, tc.episode, warm+runs+2, 21)
		p := NewHEEB(HEEBOptions{})
		p.Reset(d.st.Config, stats.NewRNG(3))
		for i := 0; i < warm; i++ {
			d.decide(p)
		}
		before := memoHits(p)
		if got := testing.AllocsPerRun(runs, func() { d.decide(p) }); got != 0 {
			t.Errorf("%s: a steady-state decision allocates %v times, want 0", tc.name, got)
		}
		if hits, scored := memoHits(p)-before, (runs+1)*(tc.slots+2); hits < scored/2 {
			t.Errorf("%s: %d of %d scores read from the table: the decisions measured are not the steady state", tc.name, hits, scored)
		}
	}
}

// BenchmarkHEEBDecision is one steady-state Evict (and the bookkeeping of the
// loop around it) per iteration; its -cold rows are a fresh policy's first
// Evict at the state the steady rows are warmed to, which sizes and fills
// both forecast windows from empty.
func BenchmarkHEEBDecision(b *testing.B) {
	const warm = 4096
	for _, tc := range heebDecisionConfigs {
		warmed := func(n int) (*decisionLoop, *HEEB) {
			d := newDecisionLoop(tc.procs(), tc.slots, tc.band, tc.episode, warm+n, 21)
			p := NewHEEB(HEEBOptions{})
			p.Reset(d.st.Config, stats.NewRNG(3))
			for i := 0; i < warm; i++ {
				d.decide(p)
			}
			return d, p
		}
		b.Run(tc.name, func(b *testing.B) {
			d, p := warmed(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.decide(p)
			}
		})
		b.Run(tc.name+"-cold", func(b *testing.B) {
			d, _ := warmed(1)
			cands, need := d.arrive()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := NewHEEB(HEEBOptions{})
				p.Reset(d.st.Config, stats.NewRNG(3))
				b.StartTimer()
				p.Evict(d.st, cands, need)
			}
		})
	}
}
