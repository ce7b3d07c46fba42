package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func TestStepCheckedRejectsBadKeys(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	before := j.Metrics()
	snap := j.Snapshot()
	for _, tc := range []struct{ r, s int }{
		{math.MaxInt64, 5},
		{5, math.MinInt64},
		{MinKey - 2, 5}, // just below the domain, and not the NoValue sentinel
	} {
		if _, err := j.StepChecked(Tuple{Key: tc.r}, Tuple{Key: tc.s}); !errors.Is(err, ErrBadTuple) {
			t.Fatalf("keys (%d, %d): got %v, want ErrBadTuple", tc.r, tc.s, err)
		}
	}
	if after := j.Metrics(); after != before {
		t.Fatalf("rejected step mutated metrics:\n  before %+v\n  after  %+v", before, after)
	}
	if !snapshotsEqual(j.Snapshot(), snap) {
		t.Fatal("rejected step mutated the cache")
	}
	if err := j.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStepCheckedAllowsNoValueAndDomainKeys(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ r, s int }{
		{process.NoValue, 5},
		{MinKey, MaxKey},
		{0, 0},
	} {
		if _, err := j.StepChecked(Tuple{Key: tc.r}, Tuple{Key: tc.s}); err != nil {
			t.Fatalf("keys (%d, %d): %v", tc.r, tc.s, err)
		}
	}
	if got, want := j.Metrics().Steps, 3; got != want {
		t.Fatalf("steps = %d, want %d", got, want)
	}
}

// panicPolicy blows up after a set number of decisions.
type panicPolicy struct{ after, n int }

func (p *panicPolicy) Name() string                  { return "PANIC" }
func (p *panicPolicy) Reset(join.Config, *stats.RNG) { p.n = 0 }
func (p *panicPolicy) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	if p.n++; p.n > p.after {
		panic("policy bug")
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestStepCheckedConvertsPanicToError(t *testing.T) {
	// With CacheSize 2, step 0 admits both arrivals without a decision; the
	// first Evict happens at step 1, the second (the panicking one) at step 2.
	j, err := NewJoin(Config{CacheSize: 2, Policy: &panicPolicy{after: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := j.StepChecked(Tuple{Key: i}, Tuple{Key: i + 10}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if _, err := j.StepChecked(Tuple{Key: 7}, Tuple{Key: 8}); !errors.Is(err, ErrStepFailed) {
		t.Fatalf("got %v, want ErrStepFailed", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	mk := func(cfg Config, steps int) *Join {
		j, err := NewJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, s := ckptTrace(steps)
		for i := 0; i < steps; i++ {
			j.Step(r[i], s[i])
		}
		if err := j.CheckInvariants(); err != nil {
			t.Fatalf("healthy operator: %v", err)
		}
		return j
	}

	t.Run("cache-order", func(t *testing.T) {
		j := mk(Config{CacheSize: 6}, 40)
		j.cache[0], j.cache[1] = j.cache[1], j.cache[0]
		if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) {
			t.Fatalf("got %v, want ErrInvariant", err)
		}
	})
	// The arrival list: a link that skips an entry, a back link that disagrees,
	// a head or tail that is not the end, a list shorter than the table.
	for name, tamper := range map[string]func(j *Join){
		"list-skips-an-entry": func(j *Join) { j.next[j.head] = j.next[j.next[j.head]] },
		"list-back-link":      func(j *Join) { j.prev[j.tail] = j.head },
		"list-head":           func(j *Join) { j.head = j.next[j.head] },
		"list-tail":           func(j *Join) { j.tail = j.prev[j.tail] },
		"list-cycle":          func(j *Join) { j.next[j.tail] = j.head },
		"list-short":          func(j *Join) { j.next = j.next[:len(j.next)-1] },
	} {
		t.Run(name, func(t *testing.T) {
			j := mk(Config{CacheSize: 6}, 40)
			tamper(j)
			if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "arrival list") {
				t.Fatalf("got %v, want ErrInvariant naming the arrival list", err)
			}
		})
	}
	// A posting that names another slot: one that holds a different (stream,
	// value), and one past the table. A band join probes the same table.
	for _, band := range []int{0, 2} {
		t.Run(fmt.Sprintf("posting-slot/band=%d", band), func(t *testing.T) {
			for _, wrong := range []func(j *Join, s int) int{
				func(j *Join, s int) int {
					return slices.IndexFunc(j.cache, func(o join.Tuple) bool {
						return o.Stream != j.cache[s].Stream || o.Value != j.cache[s].Value
					})
				},
				func(j *Join, _ int) int { return len(j.cache) },
			} {
				j := mk(Config{CacheSize: 6, Band: band}, 40)
				tp := j.cache[0]
				x := &j.equi[tp.Stream]
				c := &x.cells[x.find(int32(tp.Value))]
				c.head = int32(wrong(j, int(c.head)))
				if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "index posting") {
					t.Fatalf("got %v, want ErrInvariant naming the posting", err)
				}
			}
		})
	}
	// A key's chain and its cell: a back link that disagrees, a tail that is
	// not the chain's last slot, a chain that cycles, and a key moved to a
	// cell its probe stops short of.
	for name, tamper := range map[string]func(j *Join, x *keyIndex, i int){
		"chain-back-link": func(j *Join, x *keyIndex, i int) { j.prevSame[j.nextSame[x.cells[i].head]] = -1 },
		"chain-tail":      func(j *Join, x *keyIndex, i int) { x.cells[i].tail = x.cells[i].head },
		"chain-cycle":     func(j *Join, x *keyIndex, i int) { j.nextSame[x.cells[i].tail] = x.cells[i].head },
		"key-out-of-reach": func(j *Join, x *keyIndex, i int) {
			e := i
			for x.cells[e].key != process.NoValue {
				e = (e + 1) % len(x.cells)
			}
			x.cells[e], x.cells[i].key = x.cells[i], process.NoValue
		},
	} {
		t.Run(name, func(t *testing.T) {
			// Six keys on an eight-slot cache: chains of two and more.
			j, err := NewJoin(Config{CacheSize: 8, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(7)
			for i := 0; i < 40; i++ {
				j.Step(Tuple{Key: rng.IntN(6)}, Tuple{Key: rng.IntN(6)})
			}
			if err := j.CheckInvariants(); err != nil {
				t.Fatalf("healthy operator: %v", err)
			}
			x := &j.equi[0]
			i := slices.IndexFunc(x.cells, func(c keyCell) bool { return c.key != process.NoValue && c.head != c.tail })
			if i < 0 {
				t.Fatal("no chain of two slots to tamper with")
			}
			tamper(j, x, i)
			if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "equi index") {
				t.Fatalf("got %v, want ErrInvariant naming the equi index", err)
			}
		})
	}
	t.Run("equi-index-drift", func(t *testing.T) {
		j := mk(Config{CacheSize: 6}, 40)
		// Tamper: change a cached value without re-indexing.
		j.cache[0].Value += 1000000
		if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) {
			t.Fatalf("got %v, want ErrInvariant", err)
		}
	})
	t.Run("band-index-drift", func(t *testing.T) {
		j := mk(Config{CacheSize: 6, Band: 2}, 40)
		// Tamper: drop a key's postings from the table a band probe reads.
		tp := j.cache[0]
		x := &j.equi[tp.Stream]
		x.remove(x.find(int32(tp.Value)))
		if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) {
			t.Fatalf("got %v, want ErrInvariant", err)
		}
	})
	t.Run("over-budget", func(t *testing.T) {
		j := mk(Config{CacheSize: 6}, 40)
		j.cfg.CacheSize = len(j.cache) - 1
		if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) {
			t.Fatalf("got %v, want ErrInvariant", err)
		}
	})
	t.Run("window-expired", func(t *testing.T) {
		j := mk(Config{CacheSize: 6, Window: 8}, 40)
		j.time += 100
		if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) {
			t.Fatalf("got %v, want ErrInvariant", err)
		}
	})
}

// TestStepRefusesKeysOutsideTheDomain: Step and StepBatch panic on a key
// outside [MinKey, MaxKey] that is not NoValue, naming it, before touching
// any state. Such a key used to be cached: 7 + 2^32 aliased 7 in the equi
// index, joined with a cached R 7, and left a posting CheckInvariants refused.
func TestStepRefusesKeysOutsideTheDomain(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	j.Step(Tuple{Key: 7}, Tuple{Key: 100})
	before, snap := j.Metrics(), j.Snapshot()
	for _, tc := range []struct {
		name string
		step func()
		key  int
	}{
		{"Step", func() { j.Step(Tuple{Key: 200}, Tuple{Key: 7 + 1<<32}) }, 7 + 1<<32},
		{"Step R", func() { j.Step(Tuple{Key: MinKey - 2}, Tuple{Key: 1}) }, MinKey - 2},
		{"StepBatch", func() { j.StepBatch([]TuplePair{{R: Tuple{Key: MaxKey + 1}, S: Tuple{Key: 7}}}) }, MaxKey + 1},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.step()
			return ""
		}()
		if !strings.Contains(msg, fmt.Sprintf("key %d outside [%d, %d]", tc.key, MinKey, MaxKey)) {
			t.Fatalf("%s with key %d: panic %q, want one naming the key and the domain", tc.name, tc.key, msg)
		}
	}
	if after := j.Metrics(); after != before {
		t.Fatalf("a refused step mutated metrics:\n  before %+v\n  after  %+v", before, after)
	}
	if !snapshotsEqual(j.Snapshot(), snap) {
		t.Fatal("a refused step mutated the cache")
	}
	if err := j.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.StepChecked(Tuple{Key: 200}, Tuple{Key: 7 + 1<<32}); !errors.Is(err, ErrBadTuple) {
		t.Fatalf("StepChecked: %v, want ErrBadTuple", err)
	}
	if out := j.Step(Tuple{Key: process.NoValue}, Tuple{Key: 7}); len(out) != 1 || out[0].R.Key != 7 {
		t.Fatalf("NoValue with S 7 joined %+v, want the cached R 7 alone", out)
	}
}
