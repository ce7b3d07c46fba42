package engine

import (
	"bytes"
	"testing"

	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// checkNumbered holds a numbered batch to its contract, against want, the
// pairs a loop of Step produced for the same steps: written out, its pairs are
// want; tuples are listed in the order the pairs first name them, every listed
// tuple is named, and no arrival (seq) is listed twice. Test inputs give every
// arrival a seq of its own.
func checkNumbered(t *testing.T, label string, b Batch, want []Pair) {
	t.Helper()
	if got := appendPairs(nil, b); !pairSlicesEqual(got, want) {
		t.Fatalf("%s: numbered pairs diverge from Step's\n got %v\nwant %v", label, got, want)
	}
	next := uint32(0)
	for i, p := range b.Pairs {
		for _, n := range []uint32{p.R, p.S} {
			if n > next {
				t.Fatalf("%s: pair %d names tuple %d, listed before tuple %d was named", label, i, n, next)
			}
			if n == next {
				next++
			}
		}
	}
	if int(next) != len(b.Tuples) {
		t.Fatalf("%s: %d tuples listed, the pairs name %d", label, len(b.Tuples), next)
	}
	listed := map[uint64]int{}
	for k, tu := range b.Tuples {
		if at, dup := listed[tu.Seq]; dup {
			t.Fatalf("%s: arrival %d listed twice, as tuples %d and %d", label, tu.Seq, at, k)
		}
		listed[tu.Seq] = k
	}
}

// oldestFirst evicts the candidates with the lowest IDs: replacement a test
// can plan.
type oldestFirst struct{ picks []int }

func (p *oldestFirst) Name() string                  { return "OLDEST" }
func (p *oldestFirst) Reset(join.Config, *stats.RNG) {}
func (p *oldestFirst) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	p.picks = p.picks[:0]
	for len(p.picks) < n {
		best := -1
		for i, c := range cands {
			taken := false
			for _, q := range p.picks {
				taken = taken || q == i
			}
			if !taken && (best < 0 || c.ID < cands[best].ID) {
				best = i
			}
		}
		p.picks = append(p.picks, best)
	}
	return p.picks
}

// numberedTwins steps two operators of one configuration over the same steps,
// one batch through StepRun and step by step through Step, and checks the
// batch's numbering against the loop's pairs.
func numberedTwins(t *testing.T, label string, cfg func() Config, steps []TuplePair) (*Join, Batch) {
	t.Helper()
	run, err := NewJoin(cfg())
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := NewJoin(cfg())
	if err != nil {
		t.Fatal(err)
	}
	var want []Pair
	for _, tp := range steps {
		want = append(want, stepped.Step(tp.R, tp.S)...)
	}
	b := run.StepRun(steps)
	checkNumbered(t, label, b, want)
	return run, b
}

// numberOf is the number the batch's pairs give arrival seq on side r (R) or
// s, failing when they give it two.
func numberOf(t *testing.T, b Batch, seq uint64, side byte) uint32 {
	t.Helper()
	n, seen := uint32(0), false
	for _, p := range b.Pairs {
		k := p.S
		if side == 'R' {
			k = p.R
		}
		if b.Tuples[k].Seq != seq {
			continue
		}
		if seen && k != n {
			t.Fatalf("arrival %d is tuple %d in one pair and %d in another", seq, n, k)
		}
		n, seen = k, true
	}
	if !seen {
		t.Fatalf("no pair names arrival %d", seq)
	}
	return n
}

// TestNumberingAcrossReplacement: one batch on a four-slot cache that evicts
// its oldest entries. S tuple 1 is matched by the R arrivals of steps 1 and 2
// and evicted at step 2, its slot taken by that step's S arrival, which is
// matched at step 3: the evicted tuple keeps one number and its payload, and
// the arrival in its slot gets a number of its own. R arrivals 2 and 4 match
// at their own steps and again at step 3, from the cache: each keeps the
// number its own step gave it.
func TestNumberingAcrossReplacement(t *testing.T) {
	tu := func(key int, seq uint64) Tuple { return Tuple{Key: key, Payload: seq, Seq: seq} }
	steps := []TuplePair{
		{R: tu(100, 0), S: tu(7, 1)},
		{R: tu(7, 2), S: tu(200, 3)},
		{R: tu(7, 4), S: tu(300, 5)},
		{R: tu(300, 6), S: tu(7, 7)},
	}
	cfg := func() Config { return Config{CacheSize: 4, Seed: 1, Policy: &oldestFirst{}} }
	j, b := numberedTwins(t, "replacement", cfg, steps)
	if m := j.Metrics(); m.Evictions == 0 {
		t.Fatalf("no eviction in the batch: %+v", m)
	}
	for s, sl := range j.slots {
		if sl.seq == 1 {
			t.Fatalf("S tuple 1 is still cached, in slot %d; the scenario needs it evicted", s)
		}
	}
	evicted := numberOf(t, b, 1, 'S')
	if got := b.Tuples[evicted]; got.Payload != uint64(1) || got.Key != 7 {
		t.Fatalf("the evicted tuple is listed as %+v", got)
	}
	if numberOf(t, b, 5, 'S') == evicted {
		t.Fatal("the arrival in the evicted tuple's slot took its number")
	}
	numberOf(t, b, 2, 'R')
	numberOf(t, b, 4, 'R')
}

// TestNumberingAcrossExpiry: under a window of 2, step 3 expires the entries
// of step 0, and the hole each leaves is closed by the last slot's entry. The
// second to move is R arrival 4, numbered at step 2 when it matched S tuple 3:
// its stamp moves with it, so when S arrival 7 matches it at step 3 it is the
// same tuple.
func TestNumberingAcrossExpiry(t *testing.T) {
	tu := func(key int, seq uint64) Tuple { return Tuple{Key: key, Payload: seq, Seq: seq} }
	steps := []TuplePair{
		{R: tu(100, 0), S: tu(200, 1)},
		{R: tu(300, 2), S: tu(400, 3)},
		{R: tu(400, 4), S: tu(500, 5)},
		{R: tu(600, 6), S: tu(400, 7)},
	}
	cfg := func() Config { return Config{CacheSize: 16, Window: 2, Seed: 1} }
	j, b := numberedTwins(t, "expiry", cfg, steps)
	if m := j.Metrics(); m.Expired != 2 {
		t.Fatalf("%d entries expired, want step 0's two", m.Expired)
	}
	if j.cache[1].Value != 400 || j.slots[1].seq != 4 {
		t.Fatalf("slot 1 holds %+v, want R arrival 4 moved there from slot 4", j.cache[1])
	}
	n := numberOf(t, b, 4, 'R')
	if len(b.Pairs) != 2 || b.Pairs[0].R != n || b.Pairs[1].R != n {
		t.Fatalf("pairs %+v: want R arrival 4 in both", b.Pairs)
	}
}

// TestRestoreDropsStamps: a checkpoint carries no stamp and a restore leaves
// none — into a fresh operator, and into one whose entries the last batch
// numbered — and both restored operators number their next batch exactly as
// the operator that was checkpointed and never restored.
func TestRestoreDropsStamps(t *testing.T) {
	batch := func(seed uint64, lo int) []TuplePair {
		rng := stats.NewRNG(seed)
		steps := make([]TuplePair, 40)
		for i := range steps {
			seq := uint64(2 * (lo + i))
			steps[i] = TuplePair{R: Tuple{Key: rng.IntN(5), Payload: seq, Seq: seq}, S: Tuple{Key: rng.IntN(5), Payload: seq + 1, Seq: seq + 1}}
		}
		return steps
	}
	first, second := batch(3, 0), batch(4, 40)
	operator := func(stepped bool) *Join {
		j, err := NewJoin(Config{CacheSize: 12, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if stepped {
			j.StepRun(first)
		}
		return j
	}
	j, numbered, fresh := operator(true), operator(true), operator(false)
	stamped := 0
	for _, sl := range numbered.slots {
		if sl.stamp != 0 {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatal("no cached entry was numbered by the batch")
	}
	var ckpt bytes.Buffer
	if err := j.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	want := j.StepRun(second)
	for name, into := range map[string]*Join{"numbered": numbered, "fresh": fresh} {
		if err := into.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
		for s, sl := range into.slots {
			if sl.stamp != 0 {
				t.Fatalf("%s: slot %d keeps stamp %#x after Restore", name, s, sl.stamp)
			}
		}
		got := into.StepRun(second)
		if got.Time != want.Time || !slicesEqual(got.Tuples, want.Tuples) || !slicesEqual(got.Pairs, want.Pairs) {
			t.Fatalf("%s: the restored operator numbers the next batch otherwise:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEpochWrap: the batch epoch wraps after 2^32 batches, and then every
// stamp is cleared, so none of an old batch can name a tuple of the new one.
// An operator stepped across the wrap numbers as one that never wrapped.
func TestEpochWrap(t *testing.T) {
	cfg := Config{CacheSize: 8, Seed: 2}
	wrapped, err := NewJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped.epoch = ^uint32(0) - 3
	rng := stats.NewRNG(9)
	for b := 0; b < 8; b++ {
		steps := make([]TuplePair, 6)
		for i := range steps {
			seq := uint64(2 * (6*b + i))
			steps[i] = TuplePair{R: Tuple{Key: rng.IntN(3), Seq: seq}, S: Tuple{Key: rng.IntN(3), Seq: seq + 1}}
			if rng.IntN(4) == 0 {
				steps[i].S.Key = process.NoValue
			}
		}
		want := plain.StepRun(steps)
		got := wrapped.StepRun(steps)
		if !slicesEqual(got.Tuples, want.Tuples) || !slicesEqual(got.Pairs, want.Pairs) {
			t.Fatalf("batch %d (epoch %d): numbered otherwise than without the wrap:\n got %+v\nwant %+v", b, wrapped.epoch, got, want)
		}
	}
	if wrapped.epoch == 0 || wrapped.epoch > 8 {
		t.Fatalf("epoch %d after the wrap", wrapped.epoch)
	}
}
