package policy

import (
	"errors"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// failingRung is a Fallible rung that errors for a configured number of
// decisions before recovering.
type failingRung struct {
	name  string
	fails int
	err   error
	n     int
}

func (p *failingRung) Name() string                  { return p.name }
func (p *failingRung) Reset(join.Config, *stats.RNG) { p.n = 0 }
func (p *failingRung) Evict(st *join.State, cands []join.Tuple, n int) []int {
	out, err := p.TryEvict(st, cands, n)
	if err != nil {
		panic(err)
	}
	return out
}
func (p *failingRung) TryEvict(_ *join.State, cands []join.Tuple, n int) ([]int, error) {
	if p.n++; p.n <= p.fails {
		return nil, p.err
	}
	out := make([]int, n)
	for i := range out {
		out[i] = len(cands) - 1 - i // newest-first, distinguishable from Lfixed
	}
	return out, nil
}

// panickingRung is a non-Fallible rung whose Evict panics — the ladder must
// catch it and degrade instead of crashing.
type panickingRung struct{}

func (panickingRung) Name() string                  { return "PANICKY" }
func (panickingRung) Reset(join.Config, *stats.RNG) {}
func (panickingRung) Evict(*join.State, []join.Tuple, int) []int {
	panic("rung bug")
}

// malformedRung returns duplicate indices; the ladder must validate and
// degrade past it.
type malformedRung struct{}

func (malformedRung) Name() string                  { return "MALFORMED" }
func (malformedRung) Reset(join.Config, *stats.RNG) {}
func (malformedRung) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	out := make([]int, n)
	return out // all zeros: duplicates whenever n > 1
}

func ladderState(nCands int) (*join.State, []join.Tuple) {
	st := mkState(nCands, nil, nil, [2]process.Process{}, join.Config{CacheSize: nCands - 1})
	cands := make([]join.Tuple, nCands)
	for i := range cands {
		cands[i] = tup(i, 100+i, core.StreamID(i%2), i)
	}
	return st, cands
}

func TestLadderWalksRungsInOrder(t *testing.T) {
	r1 := &failingRung{name: "A", fails: 2, err: ErrSolverBudget}
	r2 := &failingRung{name: "B", fails: 1, err: ErrModelDiverged}
	var seen []Downgrade
	lad := &Ladder{Rungs: []join.Policy{r1, r2}, OnDowngrade: func(d Downgrade) { seen = append(seen, d) }}
	lad.Reset(join.Config{CacheSize: 3}, stats.NewRNG(1))

	st, cands := ladderState(4)

	// Decision 1: A fails, B fails → built-in Lfixed (oldest first: index 0).
	got := lad.Evict(st, cands, 1)
	if got[0] != 0 {
		t.Fatalf("decision 1 = %v, want the built-in oldest-first choice [0]", got)
	}
	// Decision 2: A fails, B succeeds (newest first).
	got = lad.Evict(st, cands, 1)
	if got[0] != 3 {
		t.Fatalf("decision 2 = %v, want B's newest-first choice [3]", got)
	}
	// Decision 3: A succeeds.
	got = lad.Evict(st, cands, 1)
	if got[0] != 3 {
		t.Fatalf("decision 3 = %v, want A's newest-first choice [3]", got)
	}

	if c0, c1, c2 := lad.FallbackCount(0), lad.FallbackCount(1), lad.FallbackCount(2); c0 != 2 || c1 != 1 || c2 != 1 {
		t.Fatalf("fallback counts = %d, %d, %d; want 2, 1, 1", c0, c1, c2)
	}
	if len(seen) != 3 {
		t.Fatalf("OnDowngrade fired %d times, want 3", len(seen))
	}
	if seen[0].From != "A" || seen[0].To != "B" || !errors.Is(seen[0].Err, ErrSolverBudget) {
		t.Fatalf("first downgrade %+v", seen[0])
	}
	if seen[1].From != "B" || seen[1].To != "LFIXED" || !errors.Is(seen[1].Err, ErrModelDiverged) {
		t.Fatalf("second downgrade %+v", seen[1])
	}
}

func TestLadderCatchesPanicsAndMalformedSets(t *testing.T) {
	var seen []Downgrade
	lad := &Ladder{
		Rungs:       []join.Policy{panickingRung{}, malformedRung{}},
		OnDowngrade: func(d Downgrade) { seen = append(seen, d) },
	}
	lad.Reset(join.Config{CacheSize: 2}, stats.NewRNG(1))
	st, cands := ladderState(4)

	got := lad.Evict(st, cands, 2)
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("ladder returned invalid set %v", got)
	}
	// Oldest two, from the built-in last resort.
	if !(got[0] == 0 && got[1] == 1) && !(got[0] == 1 && got[1] == 0) {
		t.Fatalf("last resort evicted %v, want {0, 1}", got)
	}
	if len(seen) != 2 {
		t.Fatalf("OnDowngrade fired %d times, want 2", len(seen))
	}
	if !errors.Is(seen[0].Err, ErrSolverFailed) {
		t.Fatalf("panic downgrade carries %v, want ErrSolverFailed", seen[0].Err)
	}
	if !errors.Is(seen[1].Err, ErrInvalidEviction) {
		t.Fatalf("malformed downgrade carries %v, want ErrInvalidEviction", seen[1].Err)
	}
}

func TestLadderNeverFailsUnderTotalFailure(t *testing.T) {
	lad := &Ladder{Rungs: []join.Policy{
		&failingRung{name: "X", fails: 1 << 30, err: ErrSolverFailed},
		panickingRung{},
	}}
	lad.Reset(join.Config{CacheSize: 1}, stats.NewRNG(1))
	st, cands := ladderState(5)
	for k := 0; k < 50; k++ {
		got := lad.Evict(st, cands, 3)
		if len(got) != 3 {
			t.Fatalf("decision %d returned %v", k, got)
		}
	}
	if lad.FallbackCount(len(lad.Rungs)) != 50 {
		t.Fatalf("last-resort count = %d, want 50", lad.FallbackCount(len(lad.Rungs)))
	}
}

func TestLfixedEvictsOldest(t *testing.T) {
	p := &Lfixed{}
	p.Reset(join.Config{}, nil)
	_, cands := ladderState(5)
	got := p.Evict(nil, cands, 2)
	want := map[int]bool{0: true, 1: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] || got[0] == got[1] {
		t.Fatalf("Lfixed evicted %v, want the two oldest {0, 1}", got)
	}
}

func TestDefaultLadderName(t *testing.T) {
	lad := NewDefaultLadder(5, 0, HEEBOptions{})
	if got := lad.Name(); got != "LADDER(FLOWEXPECT→HEEB→LFIXED)" {
		t.Fatalf("Name() = %q", got)
	}
	names := lad.RungNames()
	if len(names) != 4 || names[3] != "LFIXED" {
		t.Fatalf("RungNames() = %v", names)
	}
}
