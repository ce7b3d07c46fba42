package engine

import (
	"hash/maphash"
	"math/bits"

	"stochstream/internal/process"
)

// keyIndex is one stream's equijoin index: a fixed open-addressed table from
// join key to the first and last slot of that key's chain, the cached entries
// with the key linked in ID order through Join.nextSame/prevSame. It has the
// next power of two ≥ 2 × budget cells; a stream never holds more keys than
// slots, so every probe run ends at an empty cell and the table never grows.
// Probing is linear from a seeded multiplicative hash of the key, and a
// removal shifts the rest of its run back, so there are no tombstones.
type keyIndex struct {
	cells []keyCell
	shift uint   // 32 − log2(len(cells)): a hash's top bits are its home cell
	seed  uint32 // drawn at random per table; see home
}

// keyCell is one table cell: a key and the ends of its chain. key is
// process.NoValue in an empty cell, a key never posted.
type keyCell struct {
	key int32
	ends
}

func newKeyIndex(slots int) keyIndex {
	log := bits.Len(uint(2*slots - 1)) // 1<<log is the next power of two ≥ 2 × slots
	seed := uint32(maphash.String(maphash.MakeSeed(), ""))
	x := keyIndex{cells: make([]keyCell, 1<<log), shift: uint(32 - log), seed: seed}
	x.clear()
	return x
}

// clear empties every cell.
func (x *keyIndex) clear() {
	for i := range x.cells {
		x.cells[i].key = process.NoValue
	}
}

// home is the cell key's probe starts at (Fibonacci hashing: the top bits of
// (key XOR seed) × 2^32/φ). The seed keeps a client that knows the multiplier
// from aiming keys at one cell. It changes where keys sit, never a result:
// chains go by ID and the table is not checkpointed.
func (x *keyIndex) home(key int32) int {
	return int((uint32(key) ^ x.seed) * 0x9E3779B9 >> x.shift)
}

// find returns the cell holding key, or -1.
func (x *keyIndex) find(key int32) int {
	mask := len(x.cells) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		switch x.cells[i].key {
		case key:
			return i
		case process.NoValue:
			return -1
		}
	}
}

// first returns the first slot of key's chain, or -1 when the key has none.
func (x *keyIndex) first(key int32) int32 {
	if i := x.find(key); i >= 0 {
		return x.cells[i].head
	}
	return -1
}

// insert returns key's cell, claiming the first empty cell of its run, with
// an empty chain, when the key has none.
func (x *keyIndex) insert(key int32) *keyCell {
	mask := len(x.cells) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		c := &x.cells[i]
		switch c.key {
		case key:
			return c
		case process.NoValue:
			*c = keyCell{key: key, ends: ends{head: -1, tail: -1}}
			return c
		}
	}
}

// remove empties cell i, then moves back into the hole every later cell of
// the run whose probe passes it, so that every key stays reachable from its
// home with no empty cell in between.
func (x *keyIndex) remove(i int) {
	mask := len(x.cells) - 1
	for k := (i + 1) & mask; x.cells[k].key != process.NoValue; k = (k + 1) & mask {
		// The key in k probed from its home across i when i is no further
		// from k than its home is.
		if (k-x.home(x.cells[k].key))&mask >= (k-i)&mask {
			x.cells[i] = x.cells[k]
			i = k
		}
	}
	x.cells[i].key = process.NoValue
}
