// Package shardrt seeds the golden corpus's sharded-runtime finding:
// retaining a StepBatch result must be flagged everywhere.
package shardrt

import "stochstream/internal/engine"

// Collector retains a batched result beyond the step.
type Collector struct {
	pairs []engine.Pair
}

// Drain stores the operator-owned StepBatch buffer in a field.
func (c *Collector) Drain(j *engine.Join, batch []engine.TuplePair) {
	c.pairs = j.StepBatch(batch)
}
