package engine

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
)

// The cache is a table of slots (see Join.cache). The tests below pin the
// three rules that keep it — an arrival takes its victim's slot, a slot freed
// without an arrival is closed by the last, the layout travels in the
// checkpoint — without a clock, and the validation a restore owes a file
// whose cache is no longer in ID order.

// decodeWire opens a checkpoint's envelope and decodes its payload.
func decodeWire(t *testing.T, ckpt []byte) checkpointWire {
	t.Helper()
	payload, err := checkpoint.Read(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var wire checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

// encodeWire is a hand-edited file with a recomputed CRC: the wire state,
// whatever it says, inside a proper envelope.
func encodeWire(t *testing.T, wire checkpointWire) []byte {
	t.Helper()
	var payload, file bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(&file, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// checkpointByID takes a checkpoint of j with the cache section sorted by ID:
// what two operators agree on when they hold the same entries in different
// slots, as one restored from a file written before the cache had a layout
// and one that ran from the start do.
func checkpointByID(t *testing.T, j *Join) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wire := decodeWire(t, buf.Bytes())
	slices.SortFunc(wire.Cache, func(a, b cacheEntryWire) int { return a.Tuple.ID - b.Tuple.ID })
	return encodeWire(t, wire)
}

// slotIDs is the cache as slot → ID.
func slotIDs(j *Join) []int {
	ids := make([]int, len(j.cache))
	for s, tp := range j.cache {
		ids[s] = tp.ID
	}
	return ids
}

// TestRestoreRejectsBrokenArrivalOrder: the cache section of a file is in
// slot order, so "IDs ascending" is no longer there to imply that IDs are
// distinct and that arrival times follow them. Both are checked on their own,
// before anything is committed.
func TestRestoreRejectsBrokenArrivalOrder(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(cache []cacheEntryWire)
	}{
		{"repeated-id", "share ID", func(c []cacheEntryWire) { c[5].Tuple.ID = c[2].Tuple.ID }},
		{"arrival-falls-as-id-rises", "before entry", func(c []cacheEntryWire) {
			old, young := 0, 0
			for i, e := range c {
				if e.Tuple.ID < c[old].Tuple.ID {
					old = i
				}
				if e.Tuple.ID > c[young].Tuple.ID {
					young = i
				}
			}
			c[old].Tuple.Arrived, c[young].Tuple.Arrived = c[young].Tuple.Arrived, c[old].Tuple.Arrived
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, ckpt := steppedOperator(t, 100)
			wire := decodeWire(t, ckpt)
			tc.edit(wire.Cache)
			err := j.Restore(bytes.NewReader(encodeWire(t, wire)))
			if err == nil || !strings.Contains(err.Error(), "invalid checkpoint state") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an invalid-state error naming %q", err, tc.want)
			}
			requireUntouched(t, j, ckpt)
		})
	}
}

// TestRestoreKeepsTheLayout: a restore puts every entry back in the slot the
// file names — any order of distinct IDs is a layout, the ID order of a file
// written before this one among them — and rebuilds list and index around it.
func TestRestoreKeepsTheLayout(t *testing.T) {
	j, ckpt := steppedOperator(t, 100)
	want := slotIDs(j)
	if slices.IsSorted(want) {
		t.Fatalf("100 steps of RAND left the cache in ID order: %v", want)
	}
	wire := decodeWire(t, ckpt)
	for _, layout := range []struct {
		name    string
		arrange func()
	}{
		{"as-written", func() {}},
		{"id-order", func() {
			slices.SortFunc(wire.Cache, func(a, b cacheEntryWire) int { return a.Tuple.ID - b.Tuple.ID })
		}},
		{"reversed", func() { slices.Reverse(wire.Cache) }},
	} {
		layout.arrange()
		fresh, err := NewJoin(Config{CacheSize: 8, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(bytes.NewReader(encodeWire(t, wire))); err != nil {
			t.Fatalf("%s: %v", layout.name, err)
		}
		for s, e := range wire.Cache {
			if fresh.cache[s] != e.Tuple || fresh.slots[s] != (slot{payload: e.Payload, seq: e.Seq}) {
				t.Fatalf("%s: slot %d holds %+v, the file says %+v", layout.name, s, fresh.cache[s], e)
			}
		}
		if err := fresh.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", layout.name, err)
		}
	}
}

// TestReplacementMovesNothing: on a full cache a step changes the occupant of
// exactly the slots whose entries it evicted, to arrivals of that step, and
// no entry that stays changes slot — under a positional policy and under
// scored ones, with the hash index and with the ordered one.
func TestReplacementMovesNothing(t *testing.T) {
	const size, steps = 32, 2000
	procs := trendProcs()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"rand/equi", Config{CacheSize: size, Seed: 5}},
		{"rand/band", Config{CacheSize: size, Band: 2, Seed: 5}},
		{"heeb/equi", Config{CacheSize: size, Seed: 5, Procs: procs, Policy: policy.NewHEEB(heebOpts())}},
		{"heeb/band", Config{CacheSize: size, Band: 2, Seed: 5, Procs: procs, Policy: policy.NewHEEB(heebOpts())}},
		{"prob/equi", Config{CacheSize: size, Seed: 5, Policy: &policy.Prob{}}},
		{"prob/band", Config{CacheSize: size, Band: 2, Seed: 5, Policy: &policy.Prob{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := NewJoin(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(41)
			r := procs[0].Generate(rng.Split(), size/2+steps)
			s := procs[1].Generate(rng.Split(), size/2+steps)
			for i := 0; i < size/2; i++ {
				j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
			}
			replaced := 0
			for i := size / 2; i < len(r); i++ {
				before, firstNew := slotIDs(j), j.nextID
				j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
				after := slotIDs(j)
				if len(before) != size || len(after) != size {
					t.Fatalf("step %d: cache of %d then %d entries, want it full at %d", i, len(before), len(after), size)
				}
				for slot := range after {
					switch {
					case after[slot] == before[slot]:
					case after[slot] < firstNew:
						t.Fatalf("step %d: entry %d moved to slot %d", i, after[slot], slot)
					case slices.Contains(after, before[slot]):
						t.Fatalf("step %d: slot %d went to arrival %d, and its entry %d is still cached", i, slot, after[slot], before[slot])
					default:
						replaced++
					}
				}
			}
			if err := j.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if m := j.Metrics(); replaced == 0 || m.Evictions != 2*steps {
				t.Fatalf("%d slots replaced, %d evictions over %d steps: the run exercised too little", replaced, m.Evictions, steps)
			}
		})
	}
}

// TestFreedSlotClosedByLast: a slot freed with no arrival to fill it — by the
// window — takes the last slot's entry, whose posting and list links follow
// it; nothing else moves, and the oracle does the same.
func TestFreedSlotClosedByLast(t *testing.T) {
	for _, band := range []int{0, 2} {
		// Window 5 under a budget that never binds: at step 6 the two entries of
		// step 0 expire, oldest first, out of slots 0 and 1.
		cfg := Config{CacheSize: 64, Window: 5, Band: band}
		op, err := NewJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReferenceJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(7)
		for i := 0; i < 400; i++ {
			before := slotIDs(op)
			r, s := uniformTuple(rng, 6, i), uniformTuple(rng, 6, -i)
			if po, pr := op.Step(r, s), ref.Step(r, s); !pairsEqual(po, pr) {
				t.Fatalf("window, band %d: step %d pairs diverge:\n  op  %v\n  ref %v", band, i, po, pr)
			}
			if i == 6 {
				want := slices.Concat([]int{before[11], before[10]}, before[2:10], []int{12, 13})
				if got := slotIDs(op); !slices.Equal(got, want) {
					t.Fatalf("window, band %d: slots hold %v after the first expiry, want %v", band, got, want)
				}
			}
			if !snapshotsEqual(op.Snapshot(), ref.Snapshot()) {
				t.Fatalf("window, band %d: step %d: the oracle expired differently", band, i)
			}
			if err := op.CheckInvariants(); err != nil {
				t.Fatalf("window, band %d: step %d: %v", band, i, err)
			}
		}
		if m := op.Metrics(); m.Expired != 2*(400-6) || m.Evictions != 0 {
			t.Fatalf("window, band %d: %+v, want two expiries a step from step 6 and no eviction", band, m)
		}
	}
}
