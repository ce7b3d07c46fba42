// Package engine stubs the operator for the golden corpus: Join mirrors the
// real engine's Step/StepBatch signatures so stepretain's type-based
// matching resolves against the real import path.
package engine

// Tuple mirrors the real engine's tuple.
type Tuple struct {
	Key     int
	Payload interface{}
}

// Pair mirrors the real engine's join result.
type Pair struct {
	R, S Tuple
}

// TuplePair mirrors the real engine's batched-step input.
type TuplePair struct {
	R, S Tuple
}

// Join mirrors the real operator.
type Join struct{ out []Pair }

// Step mirrors the real Step's buffer-reuse contract.
func (j *Join) Step(r, s Tuple) []Pair {
	j.out = append(j.out[:0], Pair{R: r, S: s})
	return j.out
}

// StepBatch mirrors the real StepBatch's buffer-reuse contract.
func (j *Join) StepBatch(batch []TuplePair) []Pair {
	j.out = j.out[:0]
	for _, tp := range batch {
		j.out = append(j.out, Pair{R: tp.R, S: tp.S})
	}
	return j.out
}
