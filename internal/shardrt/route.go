package shardrt

import (
	"stochstream/internal/engine"
)

// Tagged is how the runtime carried an arrival's ingress sequence number
// until engine.Tuple gained its Seq field: wrapped around the payload, one
// box per tuple. Nothing builds one any more. The type stays exported and
// gob-registered only so that a checkpoint written before the change still
// decodes — its cached payloads inside the shard envelopes and its lane
// tuples in the manifest are Tagged values — and Restore unwraps each exactly
// once (Untag; see docs/fault-tolerance.md, "Sequence tags").
type Tagged struct {
	Seq     uint64
	Payload interface{}
}

// Untag returns the sequence number and the caller's payload; the engine's
// Restore calls it on cached payloads, untagLane on carried lane tuples.
func (t Tagged) Untag() (seq uint64, payload interface{}) { return t.Seq, t.Payload }

// untagLane moves the sequence numbers of a restored lane out of Tagged
// payloads, in place. A lane written since the change has none.
func untagLane(lane []engine.Tuple) {
	for i := range lane {
		if old, ok := lane[i].Payload.(Tagged); ok {
			lane[i].Seq, lane[i].Payload = old.Untag()
		}
	}
}

// ShardOf maps a join key to its shard with a Fibonacci-style multiplicative
// hash: platform-independent, deterministic, and scrambling enough that the
// trend workloads (keys drifting through a contiguous range) spread across
// shards instead of marching through them one at a time.
func ShardOf(key, shards int) int {
	if shards == 1 {
		return 0
	}
	h := uint64(int64(key)) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(shards))
}
