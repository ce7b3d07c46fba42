// Package engine is a stub of stochstream/internal/engine for the
// stepretain corpus: it mirrors the Join.Step signature so the analyzer's
// type-based matching resolves against the real import path.
package engine

// Tuple mirrors the real engine's tuple.
type Tuple struct {
	Key     int
	Payload interface{}
}

// Pair mirrors the real engine's join result.
type Pair struct {
	Time     int
	R, S     Tuple
	SameTime bool
}

// Join mirrors the real operator.
type Join struct{ out []Pair }

// Step mirrors the real Step: the returned slice is valid only until the
// next call.
func (j *Join) Step(r, s Tuple) []Pair {
	j.out = j.out[:0]
	j.out = append(j.out, Pair{R: r, S: s})
	return j.out
}

// TuplePair mirrors the real engine's batched-step input.
type TuplePair struct {
	R, S Tuple
}

// StepBatch mirrors the real StepBatch: the returned slice is valid only
// until the next Step or StepBatch call.
func (j *Join) StepBatch(batch []TuplePair) []Pair {
	j.out = j.out[:0]
	for _, tp := range batch {
		j.out = append(j.out, Pair{R: tp.R, S: tp.S})
	}
	return j.out
}

// Batch mirrors the real engine's numbered batch output.
type Batch struct {
	Tuples []Tuple
	Pairs  []PairRef
}

// PairRef mirrors the real engine's numbered pair.
type PairRef struct{ R, S uint32 }

// StepRun mirrors the real StepRun: the Batch and its slices are valid only
// until the next Step, StepBatch or StepRun call.
func (j *Join) StepRun(batch []TuplePair) Batch {
	var b Batch
	for i, tp := range batch {
		b.Tuples = append(b.Tuples, tp.R, tp.S)
		b.Pairs = append(b.Pairs, PairRef{R: uint32(2 * i), S: uint32(2*i + 1)})
	}
	return b
}
