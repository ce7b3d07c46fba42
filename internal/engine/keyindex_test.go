package engine

import (
	"testing"

	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// collidingKeys returns the first n non-negative keys whose probe starts at
// cell home of x.
func collidingKeys(x *keyIndex, home, n int) []int32 {
	var keys []int32
	for k := int32(0); len(keys) < n; k++ {
		if x.home(k) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// keyIndexCoverage counts what a model run went through: keys found in a
// cell before their home (their run wrapped past the table's end), and keys
// a removal moved back.
type keyIndexCoverage struct{ wrapped, shifted int }

// runKeyIndexModel drives a table for a 4-slot budget (8 cells, at most 4
// keys) with one operation a byte against a map[int32][2]int32 model of key →
// (head, tail). The eight keys share three home cells — three start at the
// last cell, so their runs wrap to the front, three at the first and two at
// the one before the last — so every run collides with its neighbours. Byte
// b operates on key b&7: insert when b>>3&3 is 0 or 1 (the key's cell, new
// with an empty chain or the one it has; its ends are then set to b>>5 and
// b>>5+1), remove at 2, find at 3; an insert that would take a fifth key is a
// find. After every operation every live key is found from its home cell
// with the model's ends, no other key is found, and the table holds nothing
// else.
func runKeyIndexModel(t *testing.T, ops []byte) keyIndexCoverage {
	const slots = 4
	x := newKeyIndex(slots)
	last := len(x.cells) - 1
	pool := append(append(collidingKeys(&x, last, 3), collidingKeys(&x, 0, 3)...), collidingKeys(&x, last-1, 2)...)
	model := map[int32][2]int32{}
	var cov keyIndexCoverage
	for step, b := range ops {
		key, v := pool[b&7], int32(b>>5)
		_, live := model[key]
		switch kind := b >> 3 & 3; {
		case kind <= 1 && (live || len(model) < slots):
			c := x.insert(key)
			if c.key != key || (!live && (c.head != -1 || c.tail != -1)) || (live && [2]int32{c.head, c.tail} != model[key]) {
				t.Fatalf("op %d: insert %d returned cell (key %d, head %d, tail %d), model %v", step, key, c.key, c.head, c.tail, model)
			}
			c.head, c.tail = v, v+1
			model[key] = [2]int32{v, v + 1}
		case kind == 2:
			i := x.find(key)
			if (i >= 0) != live {
				t.Fatalf("op %d: find %d before removing it = cell %d; the model has it: %v", step, key, i, live)
			}
			if live {
				before := append([]keyCell(nil), x.cells...)
				x.remove(i)
				delete(model, key)
				for k, c := range x.cells {
					if c.key != process.NoValue && c.key != before[k].key {
						cov.shifted++
					}
				}
			}
		}
		taken := 0
		for _, c := range x.cells {
			if c.key != process.NoValue {
				taken++
			}
		}
		if taken != len(model) {
			t.Fatalf("op %d: %d cells taken for %d live keys: %v", step, taken, len(model), x.cells)
		}
		for _, k := range pool {
			ends, live := model[k]
			i := x.find(k)
			switch {
			case !live && i >= 0:
				t.Fatalf("op %d: removed key %d found in cell %d: %v", step, k, i, x.cells)
			case live && i < 0:
				t.Fatalf("op %d: key %d not found from its home cell %d: %v", step, k, x.home(k), x.cells)
			case live && [2]int32{x.cells[i].head, x.cells[i].tail} != ends:
				t.Fatalf("op %d: key %d's cell holds (%d, %d), model (%d, %d)", step, k, x.cells[i].head, x.cells[i].tail, ends[0], ends[1])
			case live && i < x.home(k):
				cov.wrapped++
			}
		}
	}
	return cov
}

// TestKeyIndexMatchesMap runs random inserts, finds and removes against the
// map model (runKeyIndexModel): probe runs that collide, wrap past the table's
// end, and close up again after every removal.
func TestKeyIndexMatchesMap(t *testing.T) {
	rng := stats.NewRNG(32)
	ops := make([]byte, 20000)
	for i := range ops {
		ops[i] = byte(rng.IntN(256))
	}
	cov := runKeyIndexModel(t, ops)
	if cov.wrapped == 0 || cov.shifted == 0 {
		t.Fatalf("%d finds past the table's end, %d keys shifted back by a removal; want both", cov.wrapped, cov.shifted)
	}
}

// FuzzKeyIndex is the same model check over fuzzed operation bytes; removal's
// backward shift is the subtle part.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x10})                   // three keys of one run, the first removed
	f.Add([]byte{0x00, 0x01, 0x03, 0x04, 0x11, 0x13, 0x03}) // wrap, then close the front of the run
	f.Add([]byte{0x07, 0x06, 0x00, 0x01, 0x17, 0x00, 0x16}) // the cells before the end, then the end
	f.Fuzz(func(t *testing.T, ops []byte) {
		runKeyIndexModel(t, ops)
	})
}
